"""The integer form G/L and the per-matrix memo against the references
solve_rational over Q (in linalg) and solve_integer over Z (in _oracles)."""

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import eig_sign_counts, f2_rank, solve_integer, unimodular_inverse
from combings.combing import (
    euler_class,
    p1,
    p1_image,
    reference_parallelization,
    spin_c_equal,
    theta_g,
)
from combings.errors import NonTorsionError
from combings.linalg import (
    MEMO_SIZE,
    IntMatrix,
    analysis,
    smith_normal_form,
    solve_rational,
)
from combings.surgery import (
    ModClass,
    SurgeryPresentation,
    enumerate_torsion,
    is_torsion_class,
    linking_form,
    meridian_pairing,
    reduce_class,
)
from combings.verify import (
    random_symmetric,
    random_torsion_characteristic,
    random_unimodular,
    saturation_basis,
)


def _diagonal(d):
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


def _presentations(seed, count, max_n=8):
    """Random symmetric B with n in 1..max_n; every third one is P^T D P
    with a zero in D, hence singular."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        n = rng.randint(1, max_n)
        if k % 3 == 2:
            d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
            d[rng.randrange(n)] = 0
            p = random_unimodular(rng, n, steps=2 * n)
            b = p.transpose() @ _diagonal(d) @ p
        else:
            b = random_symmetric(rng, n, 4)
        out.append((rng, SurgeryPresentation(b)))
    return out


def _solution(pres, v):
    return solve_rational(pres.matrix, v).solution


def _characteristic(rng, pres):
    return tuple(pres.matrix.at(i, i) % 2 + 2 * rng.randint(-3, 3) for i in range(pres.n))


def _theta_constant(pres):
    pos, neg, _ = eig_sign_counts(pres.matrix.to_rows())
    return -2 * (pres.n + 1) - 3 * (pos - neg)


def _reference_theta(pres, c, constant):
    """c^T x + constant for a Fraction solution of B x = c, or None."""
    x = _solution(pres, c)
    if x is None:
        return None
    return sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(constant))


PRESENTATIONS = _presentations(5, 90)
SWEEP_PRESENTATIONS = _presentations(11, 30, max_n=4)


def test_singular_share():
    singular = sum(1 for _, p in PRESENTATIONS if smith_normal_form(p.matrix).rank < p.n)
    assert len(PRESENTATIONS) // 3 <= singular < len(PRESENTATIONS)


def _radical_presentations(seed, count, max_n=8, max_order=5000):
    """B with a kernel of rank n - r >= 2 and torsion order <= max_order:
    every other one P^T D P with at least two zeros in D (D = 0 included),
    the others A^T D A for a random r x n matrix A."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        while True:
            n = rng.randint(2 + k % 2, max_n)
            if k % 2 == 0:
                d = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(n)]
                for i in rng.sample(range(n), rng.randint(2, min(n, 4))):
                    d[i] = 0
                p = random_unimodular(rng, n, steps=2 * n)
            else:
                r = rng.randint(1, n - 2)
                d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
                p = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            b = p.transpose() @ _diagonal(d) @ p
            if analysis(b).homology.torsion_order <= max_order:
                break
        out.append((rng, SurgeryPresentation(b)))
    return out


RADICAL_PRESENTATIONS = _radical_presentations(37, 40)


@pytest.mark.parametrize("index", range(len(PRESENTATIONS)))
def test_form_agrees_with_fraction_solve(index):
    rng, pres = PRESENTATIONS[index]
    _check_against_references(rng, pres)


def _large_singular_presentations(seed, count):
    """A^T D A for a random r x n matrix A with n in 12..20 and r <= n - 2,
    so the kernel has rank >= 2."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        n = rng.randint(12, 20)
        r = rng.randint(n - 4, n - 2)
        d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)])
        out.append((rng, SurgeryPresentation(a.transpose() @ _diagonal(d) @ a)))
    return out


LARGE_SINGULAR_PRESENTATIONS = _large_singular_presentations(43, 4)


def _assert_generalized_inverse(b):
    """B G B = L B with L >= 1: G / L is a generalized inverse of B."""
    form = analysis(b).form
    assert form.L >= 1
    g = IntMatrix.from_rows(form.G)
    assert b @ g @ b == IntMatrix(b.rows, b.cols, tuple(form.L * x for x in b.entries))


@pytest.mark.parametrize("index", range(len(RADICAL_PRESENTATIONS)))
def test_singular_form_agrees_with_references_on_wide_kernel(index):
    """The integer form of a B with a kernel of rank >= 2 against
    solve_rational and solve_integer."""
    rng, pres = RADICAL_PRESENTATIONS[index]
    diag = smith_normal_form(pres.matrix).diag
    assert diag.count(0) >= 2
    _assert_generalized_inverse(pres.matrix)
    _check_against_references(rng, pres)
    for rep, ell in enumerate_torsion(pres, cap=5000):
        x = _solution(pres, rep)
        assert ell.value == -sum((Fraction(a) * b for a, b in zip(rep, x)), Fraction(0)) % 1


@pytest.mark.parametrize("index", range(len(LARGE_SINGULAR_PRESENTATIONS)))
def test_form_agrees_with_references_on_large_singular(index):
    rng, pres = LARGE_SINGULAR_PRESENTATIONS[index]
    assert smith_normal_form(pres.matrix).diag.count(0) >= 2
    _check_against_references(rng, pres)


def _check_against_references(rng, pres):
    """theta_g, the torsion tests, meridian_pairing and lattice membership
    against the Fraction solve and solve_integer."""
    constant = _theta_constant(pres)
    for c in (random_torsion_characteristic(rng, pres), _characteristic(rng, pres)):
        want = _reference_theta(pres, c, constant)
        assert is_torsion_class(pres, c) == (want is not None)
        assert euler_class(pres, c).is_torsion == (want is not None)
        if want is None:
            with pytest.raises(NonTorsionError):
                theta_g(pres, c)
        else:
            assert theta_g(pres, c) == want
    for _ in range(4):
        v = tuple(rng.randint(-3, 3) for _ in range(pres.n))
        w = pres.matrix.matvec([rng.randint(-2, 2) for _ in range(pres.n)])
        if rng.random() < 0.5:
            w = tuple(rng.randint(-3, 3) for _ in range(pres.n))
        xv, xw = _solution(pres, v), _solution(pres, w)
        if xv is None or xw is None:
            with pytest.raises(NonTorsionError):
                meridian_pairing(pres, v, w)
            continue
        want = -sum((Fraction(a) * b for a, b in zip(v, xw)), Fraction(0))
        assert meridian_pairing(pres, v, w) == want
        assert meridian_pairing(pres, w, v) == want
    _check_lattice_membership(rng, pres)


def _in_lattice(pres, v):
    return solve_integer(pres.matrix, v) is not None


def _check_lattice_membership(rng, pres):
    """euler_class(...).is_zero and spin_c_equal against solve_integer, on
    characteristic vectors in B Z^n by construction and on random ones."""
    c_ref = reference_parallelization(pres).c

    def shifted(c, scale):
        u = [rng.randint(-2, 2) for _ in range(pres.n)]
        return tuple(a + scale * b for a, b in zip(c, pres.matrix.matvec(u)))

    inside = [c_ref, shifted(c_ref, 2)]
    for c in inside:
        assert _in_lattice(pres, c)
        assert euler_class(pres, c).is_zero
    samples = inside + [_characteristic(rng, pres) for _ in range(3)]
    samples.append(random_torsion_characteristic(rng, pres))
    for c in samples:
        assert euler_class(pres, c).is_zero == _in_lattice(pres, c)
        same = shifted(c, 2)
        assert spin_c_equal(pres, c, same)
        for other in (same, _characteristic(rng, pres), shifted(c, 1)):
            if any((a - b) % 2 for a, b in zip(c, other)):
                continue
            half = tuple((a - b) // 2 for a, b in zip(c, other))
            assert spin_c_equal(pres, c, other) == _in_lattice(pres, half)


def _reference_sweep(pres, box):
    """The enumeration side of p1_image with one Fraction solve per vector."""
    ranges = [
        [v for v in range(-box, box + 1) if v % 2 == pres.matrix.at(i, i) % 2]
        for i in range(pres.n)
    ]
    constant = _theta_constant(pres)
    values = set()
    for c in itertools.product(*ranges):
        value = _reference_theta(pres, c, constant)
        if value is not None:
            values.add(value % 4)
    return values


@pytest.mark.parametrize("index", range(len(SWEEP_PRESENTATIONS)))
def test_sweep_agrees_with_fraction_solve(index):
    _, pres = SWEEP_PRESENTATIONS[index]
    report = p1_image(pres, cap=10**6, box=2)
    assert {m.value for m in report.enumeration_side} == _reference_sweep(pres, 2)


def _plumbing(k):
    """The A_k plumbing: a chain of k (-2)-framed unknots, H_1 = Z/(k+1)."""
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


# each has at least two invariant factors > 1 once padded and scrambled
SPLIT_TORSION = (
    [[2, 0], [0, 4]],
    [[3, 0, 0], [0, 3, 0], [0, 0, 6]],
    _block_diagonal([[5]], [[-5]]),
    _block_diagonal(_plumbing(1), _plumbing(3)),
    _block_diagonal(_plumbing(2), _plumbing(2)),
    _block_diagonal(_plumbing(1), [[2]], [[-6]]),
)


def _torsion_presentations(seed, count, max_order=3000, max_n=5):
    """Random B with n <= max_n and torsion order <= max_order: every third
    one random, every third a scrambled SPLIT_TORSION block padded with +-1
    and maybe 0, every third P^T D P with a zero in D, hence singular."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        while True:
            if k % 3 == 0:
                b = random_symmetric(rng, rng.randint(1, max_n), 4)
            else:
                if k % 3 == 1:
                    d = rng.choice(SPLIT_TORSION)
                    pad = [rng.choice((1, -1, 0))
                           for _ in range(rng.randint(0, max_n - len(d)))]
                    d = _block_diagonal(d, *([[x]] for x in pad))
                else:
                    d = [rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
                         for _ in range(rng.randint(1, max_n - 1))]
                    d.insert(rng.randrange(len(d) + 1), 0)
                    d = _block_diagonal(*([[x]] for x in d))
                p = random_unimodular(rng, len(d), steps=3 * len(d))
                b = p.transpose() @ IntMatrix.from_rows(d) @ p
            if analysis(b).homology.torsion_order <= max_order:
                break
        out.append(SurgeryPresentation(b))
    return out


TORSION_PRESENTATIONS = _torsion_presentations(17, 60)
DERIVED_PRESENTATIONS = _torsion_presentations(29, 48, max_n=6)


def _split_and_singular(family):
    split = singular = 0
    for pres in family:
        snf = smith_normal_form(pres.matrix)
        split += sum(1 for d in snf.diag if d > 1) >= 2
        singular += snf.rank < pres.n
    return split, singular


def test_torsion_presentations_cover_split_and_singular():
    split, singular = _split_and_singular(TORSION_PRESENTATIONS)
    assert split >= len(TORSION_PRESENTATIONS) // 3
    assert singular >= len(TORSION_PRESENTATIONS) // 3


def test_derived_presentations_cover_split_and_singular():
    split, singular = _split_and_singular(DERIVED_PRESENTATIONS)
    assert split >= len(DERIVED_PRESENTATIONS) // 3
    assert singular >= len(DERIVED_PRESENTATIONS) // 3
    assert max(pres.n for pres in DERIVED_PRESENTATIONS) == 6


def _oracle_u_inverse(pres):
    """U^{-1} of the Smith form of B, from the cofactor oracle."""
    u = smith_normal_form(pres.matrix).U
    return IntMatrix.from_rows(unimodular_inverse(u.to_rows()))


def _oracle_lifts(pres, u_inv):
    """U^{-1} y for every torsion class y in Smith coordinates, each factor
    d_i > 1 enumerated 0..d_i-1, the first varying slowest."""
    diag = smith_normal_form(pres.matrix).diag
    positions = [i for i, d in enumerate(diag) if d > 1]
    for combo in itertools.product(*(range(diag[i]) for i in positions)):
        y = [0] * pres.n
        for i, yi in zip(positions, combo):
            y[i] = yi
        yield u_inv.matvec(y)


@pytest.mark.parametrize("index", range(len(DERIVED_PRESENTATIONS)))
def test_columns_read_off_bv_match_cofactor_inverse(index):
    """reduce_class, the enumerated representatives and the saturation basis
    read U^{-1} columns off B V = U^{-1} D; each equals the cofactor inverse's."""
    pres = DERIVED_PRESENTATIONS[index]
    snf = smith_normal_form(pres.matrix)
    u_inv = _oracle_u_inverse(pres)
    rng = random.Random(index)
    for _ in range(12):
        v = [rng.randint(-9, 9) for _ in range(pres.n)]
        y = [yi % d if d else yi for yi, d in zip(snf.U.matvec(v), snf.diag)]
        assert reduce_class(pres, v) == u_inv.matvec(y)
    want = list(_oracle_lifts(pres, u_inv))
    assert [rep for rep, _ in enumerate_torsion(pres, cap=3000)] == want
    assert saturation_basis(pres) == [u_inv.column(i) for i in range(snf.rank)]


@pytest.mark.parametrize("index", range(len(TORSION_PRESENTATIONS)))
def test_smith_coordinates_agree_with_fraction_route(index):
    """enumerate_torsion lifts U^{-1} y in order with the n x n linking form,
    and the formula side of p1_image is p_1(reference) - 4 lk built with
    Fractions."""
    pres = TORSION_PRESENTATIONS[index]
    data = analysis(pres.matrix)
    want = []
    for rep in _oracle_lifts(pres, _oracle_u_inverse(pres)):
        assert _solution(pres, rep) is not None
        want.append((rep, linking_form(pres, rep)))
    positions = tuple(i for i, d in enumerate(data.snf.diag) if d > 1)
    assert data.torsion_form.positions == positions
    got = enumerate_torsion(pres, cap=3000)
    assert got == tuple(want)
    ref = p1(reference_parallelization(pres)).value
    formula = {ModClass(ref - 4 * ell.value, Fraction(4)) for _, ell in want}
    assert p1_image(pres, cap=3000, box=1).formula_side == formula


def test_form_is_inverse_for_nonsingular():
    for _, pres in PRESENTATIONS:
        snf = smith_normal_form(pres.matrix)
        if snf.rank < pres.n:
            continue
        form = analysis(pres.matrix).form
        g = IntMatrix.from_rows(form.G)
        assert pres.matrix @ g == _diagonal([form.L] * pres.n)
        assert form.L == snf.diag[-1]  # the least L, not |det B|


def test_form_is_generalized_inverse():
    """B G B = L B for every B of the seeded families, with the empty and
    zero matrices and the wide kernels."""
    matrices = [_diagonal([0] * n) for n in (0, 1, 2, 5)]
    for family in (
        PRESENTATIONS, SWEEP_PRESENTATIONS, RADICAL_PRESENTATIONS, LARGE_SINGULAR_PRESENTATIONS
    ):
        matrices += [pres.matrix for _, pres in family]
    for family in (TORSION_PRESENTATIONS, DERIVED_PRESENTATIONS):
        matrices += [pres.matrix for pres in family]
    for b in matrices:
        _assert_generalized_inverse(b)


def test_singular_questions_build_only_what_they_read():
    """On singular B, form builds neither the Smith form nor the signature,
    and spin_c_equal answers from the Smith form without building form."""
    pres = SurgeryPresentation.from_rows([[2, 1, 3], [1, 5, 6], [3, 6, 9]])
    data = analysis(pres.matrix)
    data.form
    assert "snf" not in data.__dict__ and "signature" not in data.__dict__
    pres = SurgeryPresentation.from_rows([[4, 1, 5], [1, 3, 4], [5, 4, 9]])
    assert spin_c_equal(pres, (0, 1, 1), (8, 3, 11))
    assert not spin_c_equal(pres, (0, 1, 1), (2, 1, 1))
    assert "form" not in analysis(pres.matrix).__dict__


def test_nonsingular_questions_build_no_smith_form():
    """theta_g, spin_c_equal, euler_class and is_torsion_class on nonsingular
    B read the signature and the adjugate pass only; is_torsion_class builds
    no integer form, for singular B neither."""
    pres = SurgeryPresentation.from_rows([[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]])
    data = analysis(pres.matrix)
    assert is_torsion_class(pres, (1, 0, 2, -1))
    assert "form" not in data.__dict__
    c = data.c_ref
    theta_g(pres, c)
    assert spin_c_equal(pres, c, tuple(x + 2 * y for x, y in zip(c, pres.matrix.row(0))))
    assert euler_class(pres, c).is_zero
    assert "form" in data.__dict__ and "snf" not in data.__dict__
    singular = SurgeryPresentation.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 3]])
    assert is_torsion_class(singular, (1, 2, 5))
    assert not is_torsion_class(singular, (1, 0, 0))
    assert "form" not in analysis(singular.matrix).__dict__


def test_dim_h1_mod2_matches_f2_rank():
    for _, pres in PRESENTATIONS:
        want = pres.n - f2_rank(pres.matrix.to_rows())
        assert analysis(pres.matrix).homology.dim_h1_mod2 == want


def test_memo_stays_bounded():
    pres = SurgeryPresentation.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    grid = itertools.product(range(-14, 15), repeat=3)
    for u in itertools.islice(grid, 20_000):
        theta_g(pres, tuple(2 * x for x in u))
        assert analysis.cache_info().currsize <= MEMO_SIZE
    for k in range(MEMO_SIZE + 8):
        theta_g(SurgeryPresentation.from_rows([[2 * k + 2]]), (0,))
        assert analysis.cache_info().currsize <= MEMO_SIZE
    assert analysis.cache_info().currsize == MEMO_SIZE
