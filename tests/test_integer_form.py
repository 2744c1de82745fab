"""The integer form G/L and the per-matrix memo against the references
frac_solve over Q and solve_integer over Z (both in _oracles)."""

import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from _oracles import (
    echelon,
    eig_sign_counts,
    f2_rank,
    frac_inverse,
    frac_rank,
    frac_solve,
    naive_det,
    reference,
    smith_coordinates,
    smith_generators,
    smith_kernel,
    solve_integer,
    unimodular_inverse,
)
from combings.combing import (
    CombingSpec,
    combing_equal,
    euler_class,
    gamma_orbit_modulus,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    reference_parallelization,
    spin_c_equal,
    theta_g,
)
from combings import linalg
from combings.cli import main
from combings.errors import CapExceededError, NonTorsionError
from combings.linalg import (
    MEMO_SIZE,
    IntMatrix,
    analysis,
    smith_normal_form,
)
from combings.surgery import (
    SurgeryPresentation,
    classes_equal,
    homology_summary,
    is_torsion_class,
    linking_form,
    meridian_pairing,
    reduce_class,
    torsion_residues,
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


def _det(b):
    return frac_inverse(b.to_rows())[1]


def _solution(pres, v):
    return frac_solve(pres.matrix.to_rows(), v)[0]


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
    frac_solve and solve_integer."""
    rng, pres = RADICAL_PRESENTATIONS[index]
    diag = smith_normal_form(pres.matrix).diag
    assert diag.count(0) >= 2
    _assert_generalized_inverse(pres.matrix)
    _check_against_references(rng, pres)
    L, classes = torsion_residues(pres, cap=5000)
    for rep, r in classes:
        x = _solution(pres, rep)
        assert Fraction(r, L) == -sum((Fraction(a) * b for a, b in zip(rep, x)), Fraction(0)) % 1


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
    assert {Fraction(r, report.denominator) for r in report.enumeration_residues} == (
        _reference_sweep(pres, 2)
    )


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


def _assert_saturation_basis(pres):
    """saturation_basis is a basis of (ker B)^perp cap Z^n: as many vectors
    as the rank, each orthogonal to ker B, and the gcd of their maximal
    minors is 1, so they span a saturated lattice of that rank."""
    sat = saturation_basis(pres)
    rank = frac_rank(pres.matrix.to_rows())
    assert len(sat) == rank
    for z in smith_kernel(pres.matrix):
        assert not any(sum(map(mul, v, z)) for v in sat)
    minors = 0
    for cols in itertools.combinations(range(pres.n), rank):
        minors = math.gcd(minors, naive_det([[v[j] for j in cols] for v in sat]))
    assert minors == 1


@pytest.mark.parametrize("index", range(len(DERIVED_PRESENTATIONS)))
def test_columns_read_off_bv_match_cofactor_inverse(index):
    """reduce_class and the enumerated representatives against U^{-1} y for
    the Smith coordinates y, U^{-1} from the cofactor oracle: they hold the
    same classes (the same Smith coordinates, free ones included), each
    enumerated class once, for singular and nonsingular B alike.  The
    saturation basis is a basis of (ker B)^perp cap Z^n."""
    pres = DERIVED_PRESENTATIONS[index]
    coords = smith_coordinates(pres.matrix)
    u_inv = _oracle_u_inverse(pres)
    rng = random.Random(index)
    for _ in range(12):
        v = [rng.randint(-9, 9) for _ in range(pres.n)]
        y = coords(v)
        assert coords(u_inv.matvec(y)) == y
        assert coords(reduce_class(pres, v)) == y
    want = list(_oracle_lifts(pres, u_inv))
    got = [rep for rep, _ in torsion_residues(pres, cap=3000)[1]]
    assert len(got) == len(want) == len(set(map(coords, got)))
    assert sorted(map(coords, got)) == sorted(map(coords, want))
    _assert_saturation_basis(pres)


@pytest.mark.parametrize("index", range(len(TORSION_PRESENTATIONS)))
def test_smith_coordinates_agree_with_fraction_route(index):
    """torsion_residues against U^{-1} y over the Smith coordinates y, with
    the n x n linking form: the same classes with the same values r / L,
    each once, for singular and nonsingular B alike; every representative
    is its own reduce_class.  The formula side of p1_image is
    p_1(reference) - 4 lk built with Fractions."""
    pres = TORSION_PRESENTATIONS[index]
    want = []
    for rep in _oracle_lifts(pres, _oracle_u_inverse(pres)):
        assert _solution(pres, rep) is not None
        want.append((rep, linking_form(pres, rep)))
    L, got = torsion_residues(pres, cap=3000)
    coords = smith_coordinates(pres.matrix)
    assert len(got) == len(want) == len({coords(rep) for rep, _ in got})
    assert {coords(rep): Fraction(r, L) for rep, r in got} == {coords(rep): v for rep, v in want}
    assert all(reduce_class(pres, rep) == rep for rep, _ in got)
    ref = p1(reference_parallelization(pres)).value
    report = p1_image(pres, cap=3000, box=1)
    formula = {(ref - 4 * v) % 4 * report.denominator for _, v in want}
    assert report.formula_residues == formula


def _hermite_presentations(seed, count):
    """Nonsingular B against the Smith reference: n <= 8 with entry bounds
    1..9, a few n in 16..24, and the edge cases n = 0, unimodular B (no
    position with h_ii > 1, one class) and negative 1 x 1 B."""
    out = []
    k = 0
    while len(out) < count:
        rng = random.Random(f"{seed}:{k}")
        k += 1
        b = random_symmetric(rng, rng.randint(1, 8), rng.randint(1, 9))
        if _det(b):
            out.append((rng, SurgeryPresentation(b)))
    for n in (16, 20, 24):
        rng = random.Random(f"{seed}:large:{n}")
        out.append((rng, SurgeryPresentation(random_symmetric(rng, n, 5))))
    rng = random.Random(f"{seed}:edge")
    for n in (3, 6):
        p = random_unimodular(rng, n, steps=3 * n)
        signs = _diagonal([rng.choice((1, -1)) for _ in range(n)])
        out.append((rng, SurgeryPresentation(p.transpose() @ signs @ p)))
    for rows in ([], [[-1]], [[-5]], [[-12]]):
        out.append((rng, SurgeryPresentation.from_rows(rows)))
    return out


HERMITE_PRESENTATIONS = _hermite_presentations(61, 90)


@pytest.mark.parametrize("index", range(len(HERMITE_PRESENTATIONS)))
def test_hermite_route_matches_smith_reference(index):
    """The Hermite route for nonsingular B against the Smith form with
    transforms: invariant factors, dim_h1_mod2, representatives that hold
    the class of the input inside the Hermite box, and, where |det B| is at
    most 3000, an enumeration of |det B| distinct classes whose values are
    those of the Smith route as a multiset."""
    rng, pres = HERMITE_PRESENTATIONS[index]
    b = pres.matrix
    snf = smith_normal_form(b)
    coords = smith_coordinates(b)
    order = abs(_det(b))
    summary = homology_summary(pres)
    assert summary.invariant_factors == tuple(d for d in snf.diag if d > 1)
    assert summary.dim_h1_mod2 == sum(1 for d in snf.diag if d % 2 == 0)
    assert (summary.torsion_order, summary.betti_1, summary.kernel_basis) == (order, 0, ())
    hermite = analysis(b).box
    diag = [col[-1] for col in hermite]
    for j, col in enumerate(hermite):
        assert all(0 <= x < d for x, d in zip(col[:j], diag)) and col[j] > 0
        assert not any(coords(col + (0,) * (pres.n - j - 1)))  # a column of H lies in B Z^n
    for _ in range(6):
        v = tuple(rng.randint(-50, 50) for _ in range(pres.n))
        u = [rng.randint(-4, 4) for _ in range(pres.n)]
        rep = reduce_class(pres, v)
        assert rep == reduce_class(pres, tuple(x + y for x, y in zip(v, b.matvec(u))))
        assert coords(rep) == coords(v)
        # 0 <= x_i < h_ii, so x_i = 0 wherever h_ii = 1
        assert all(0 <= x < d for x, d in zip(rep, diag))
    if order > 3000:
        return
    L, got = torsion_residues(pres, cap=3000)
    assert len(got) == order == len({coords(rep) for rep, _ in got})
    gens = smith_generators(b)
    lift = IntMatrix.from_rows([[g[k] for g, _ in gens] for k in range(pres.n)])  # U^{-1} y
    want = Counter(
        linking_form(pres, lift.matvec(y))
        for y in itertools.product(*(range(d) for _, d in gens))
    )
    assert Counter(Fraction(r, L) for _, r in got) == want


@pytest.mark.parametrize("index", range(len(HERMITE_PRESENTATIONS)))
def test_nonsingular_b_is_its_own_core(index):
    """A nonsingular B gets the trivial split from the signature, without
    the integer form, and is its own core: its box is the Hermite form of B,
    built by the first box question only.  The torsion form of the one
    lattice route then has the generators e_i at the positions T with
    h_ii > 1 and Q = G[T, T] mod L, and in_lattice reads the rows of G."""
    _, pres = HERMITE_PRESENTATIONS[index]
    b, n = pres.matrix, pres.n
    data = linalg.MatrixAnalysis(b)  # a fresh analysis, outside the memo
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert data.split == (identity, identity, (), ())
    assert "form" not in data.__dict__ and "box" not in data.__dict__
    hermite = data.box
    assert hermite == reference(b.to_rows())
    form = data.form
    positions = [i for i, col in enumerate(hermite) if col[-1] > 1]
    tf = data.torsion_form
    assert data.box is hermite
    assert tf.factors == tuple(hermite[i][-1] for i in positions)
    assert tf.generators == tuple(tuple(int(k == i) for i in positions) for k in range(n))
    assert tf.Q == tuple(tuple(form.G[i][j] % form.L for j in positions) for i in positions)
    assert data._lattice_rows == form.G


@pytest.mark.parametrize("index", range(len(HERMITE_PRESENTATIONS)))
def test_nonsingular_lattice_rows_are_g(index):
    """R_1 = I on a nonsingular B, so in_lattice reads the rows of G itself,
    with no product by the identity."""
    _, pres = HERMITE_PRESENTATIONS[index]
    data = linalg.MatrixAnalysis(pres.matrix)
    assert data._lattice_rows is data.form.G


def test_hermite_presentations_cover_edges():
    orders = [abs(_det(p.matrix)) for _, p in HERMITE_PRESENTATIONS]
    assert sum(1 for d in orders if d <= 3000) >= len(orders) // 3
    assert orders.count(1) >= 3 and max(p.n for _, p in HERMITE_PRESENTATIONS) == 24


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


@pytest.fixture
def passes(monkeypatch):
    """An empty memo, and a log of the number of symmetric passes
    (`linalg._signature`) run on each matrix and of the number of Smith
    forms with transforms built from here on: Smith passes
    `linalg._diagonalize` with a border, which every copy of
    `smith_normal_form` runs, whatever name calls it."""
    log = {"passes": Counter(), "smith": 0}
    signature_pass, diagonalize = linalg._signature, linalg._diagonalize

    def counting_signature(s):
        log["passes"][s] += 1
        return signature_pass(s)

    def counting_diagonalize(m, r=None, c=None):
        log["smith"] += r is not None
        return diagonalize(m, r, c)

    monkeypatch.setattr(linalg, "_signature", counting_signature)
    monkeypatch.setattr(linalg, "_diagonalize", counting_diagonalize)
    analysis.cache_clear()
    return log


def test_singular_questions_build_only_what_they_read(passes):
    """On singular B, form builds neither the box nor the split, and
    spin_c_equal answers from form and the split: one pass, with no box and
    no Smith form."""
    pres = SurgeryPresentation.from_rows([[2, 1, 3], [1, 5, 6], [3, 6, 9]])
    data = analysis(pres.matrix)
    data.form
    assert "box" not in data.__dict__ and "split" not in data.__dict__
    pres = _cold([[4, 1, 5], [1, 3, 4], [5, 4, 9]])
    passes["passes"].clear()
    assert spin_c_equal(pres, (0, 1, 1), (8, 3, 11))
    assert not spin_c_equal(pres, (0, 1, 1), (2, 1, 1))
    assert passes == {"passes": {pres.matrix: 1}, "smith": 0}
    assert "box" not in analysis(pres.matrix).__dict__


def test_cold_questions_run_one_pass(passes):
    """Every question on a fresh entry runs one symmetric pass on B, which
    gives the signature, det B, the kernel and `form`, and a question that
    reads the box of a singular B one more, on its core."""
    questions = (
        (lambda pres, c: theta_g(pres, c), False),
        (lambda pres, c: p1(CombingSpec(pres, c, 1)), False),
        (lambda pres, c: hf_grading(CombingSpec(pres, c)), False),
        (lambda pres, c: euler_class(pres, c), False),
        (lambda pres, c: spin_c_equal(pres, c, c), False),
        (lambda pres, c: combing_equal(CombingSpec(pres, c), CombingSpec(pres, c)), False),
        (lambda pres, c: gamma_orbit_modulus(pres, c), False),
        (lambda pres, c: parity_check(pres), False),
        (lambda pres, c: is_torsion_class(pres, c), False),
        (lambda pres, c: meridian_pairing(pres, c, c), False),
        (lambda pres, c: linking_form(pres, c), False),
        (lambda pres, c: homology_summary(pres), True),
        (lambda pres, c: reduce_class(pres, c), True),
        (lambda pres, c: classes_equal(pres, c, c), True),
        (lambda pres, c: torsion_residues(pres), True),
        (lambda pres, c: p1_image(pres, box=1), True),
    )
    for rows, c, singular in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], (1, 0, 0), False),
        ([[2, 1, 3], [1, 7, 8], [3, 8, 11]], (0, 1, 1), True),  # kernel (1, 1, -1)
    ):
        for question, reads_box in questions:
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            question(pres, c)
            assert passes["passes"][pres.matrix] == 1
            assert sum(passes["passes"].values()) == 1 + (singular and reads_box)
    assert passes["smith"] == 0


def test_cold_torsion_walk_reads_the_torsion_form(passes):
    """torsion_residues (linking-form) and p1_image read the factors of the
    torsion form: one pass on a nonsingular B, plus the core's pass on a
    singular one, and no homology summary."""
    for rows, singular in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], False),
        ([[2, 1, 3], [1, 5, 6], [3, 6, 9]], True),  # kernel (1, 1, -1)
    ):
        for question in (torsion_residues, lambda pres: p1_image(pres, box=1)):
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            question(pres)
            assert passes["passes"][pres.matrix] == 1
            assert sorted(passes["passes"].values()) == [1] * (1 + singular)
            assert "homology" not in analysis(pres.matrix).__dict__
    assert passes["smith"] == 0


def test_refused_torsion_walk_reads_det_alone(passes):
    """A cold linking-form or image-p1 on a nonsingular B whose order
    |det B| is over the cap is refused after the one pass, before the box
    or the integer form; the message is the one the torsion form's order
    gave."""
    b = [[3, 1, 0], [1, -2, 1], [0, 1, 4]]  # coker Z/31
    doc = {"linking_matrix": b}
    for argv in (["linking-form", "--cap", "30"], ["image-p1", "--cap", "30"]):
        analysis.cache_clear()
        pres = _cold(b)
        passes["passes"].clear()
        err = io.StringIO()
        code = main(argv, stdin=io.StringIO(json.dumps(doc)), stdout=io.StringIO(), stderr=err)
        assert code == 2
        assert err.getvalue() == "error: CapExceeded: torsion order 31 exceeds cap 30\n"
        assert passes["passes"] == {pres.matrix: 1}
        assert not {"form", "box", "torsion_form"} & analysis(pres.matrix).__dict__.keys()
    analysis.cache_clear()
    pres = _cold(b)
    with pytest.raises(CapExceededError, match="^torsion order 31 exceeds cap 30$"):
        torsion_residues(pres, cap=30)
    assert len(torsion_residues(pres, cap=31)[1]) == 31
    assert passes["smith"] == 0


def test_one_pass_per_fresh_entry_in_any_order(passes):
    """signature, form, box and form_on, asked in each of the 24 orders on a
    fresh entry, run one pass on B, and a singular B one more on the core
    when the box is asked; each answer equals that of an entry that was
    asked it alone."""
    v = (1, 0, 2)
    for rows in (
        [[3, 1, 0], [1, -2, 1], [0, 1, 4]],
        [[2, 1, 3], [1, 5, 6], [3, 6, 9]],  # kernel (1, 1, -1)
    ):
        b = IntMatrix.from_rows(rows)
        questions = {
            "signature": lambda data: data.signature,
            "form": lambda data: data.form,
            "box": lambda data: data.box,
            "form_on": lambda data: Fraction(*_pairing(data, v)),
        }
        alone = {name: ask(linalg.MatrixAnalysis(b)) for name, ask in questions.items()}
        for order in itertools.permutations(questions):
            passes["passes"].clear()
            data = linalg.MatrixAnalysis(b)
            for name in order:
                assert questions[name](data) == alone[name], order
            assert passes["passes"][b] == 1
            assert sum(passes["passes"].values()) == 1 + bool(alone["signature"].n_zero)
    assert passes["smith"] == 0


def _pairing(data, v):
    form, (x,) = data.form_on((v,))
    return form.pair(x, x), form.L


def test_parity_then_homology_run_one_pass(passes):
    """parity_check (a cold theta_g) and then homology_summary on a fresh
    nonsingular B: the box reads the adjugate columns of the pass theta_g
    ran, with no second pass."""
    pres = _cold([[3, 1, 0], [1, -2, 1], [0, 1, 4]])
    passes["passes"].clear()
    assert parity_check(pres)
    assert homology_summary(pres).invariant_factors == (31,)
    assert passes["passes"] == {pres.matrix: 1}


def test_singular_homology_runs_one_pass_and_the_cores(passes):
    """homology_summary on a fresh singular B runs one pass on B, whose
    kernel vectors give the split, and one on the core B' = W_1^T B W_1."""
    pres = _cold([[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]])  # kernel (1, 1, -1, 0)
    passes["passes"].clear()
    summary = homology_summary(pres)
    assert summary.betti_1 == 1 and summary.torsion_order == 45
    columns = analysis(pres.matrix).split.columns
    bw = [pres.matrix.matvec(w) for w in columns]
    core = IntMatrix.from_rows([[sum(map(mul, wi, x)) for x in bw] for wi in columns])
    assert passes["passes"] == {pres.matrix: 1, core: 1}
    assert passes["smith"] == 0


def test_nonsingular_questions_build_no_smith_form(passes):
    """theta_g, spin_c_equal, euler_class and is_torsion_class on nonsingular
    B read the pass and the integer form only; is_torsion_class builds no
    integer form.  On singular B, theta_g and is_torsion_class read the
    pass's kernel vectors.  homology_summary, reduce_class,
    classes_equal, torsion_residues, p1_image, parity_check and
    gamma_orbit_modulus read the Hermite form of B, or of the core of a
    singular B.  None of them builds a Smith form."""
    pres = SurgeryPresentation.from_rows([[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]])
    data = analysis(pres.matrix)
    assert is_torsion_class(pres, (1, 0, 2, -1))
    assert "form" not in data.__dict__
    c = data.c_ref
    theta_g(pres, c)
    assert spin_c_equal(pres, c, tuple(x + 2 * y for x, y in zip(c, pres.matrix.row(0))))
    assert euler_class(pres, c).is_zero
    assert "form" in data.__dict__ and passes["smith"] == 0
    singular = SurgeryPresentation.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 3]])
    assert is_torsion_class(singular, (1, 2, 5))
    assert not is_torsion_class(singular, (1, 0, 0))
    assert "box" not in analysis(singular.matrix).__dict__
    singular = _cold([[2, 1, 3], [1, 7, 8], [3, 8, 11]])
    c = (0, 1, 1)
    assert theta_g(singular, c) == _reference_theta(singular, c, _theta_constant(singular))
    assert "box" not in analysis(singular.matrix).__dict__ and passes["smith"] == 0
    # the lattice questions read the Hermite form; a singular B reads that
    # of its core, and its kernel basis is the echelon basis of the lattice
    pres = SurgeryPresentation.from_rows([[2, 1, 0, 1], [1, -3, 1, 0], [0, 1, 4, 1], [1, 0, 1, -2]])
    data = analysis(pres.matrix)
    summary = homology_summary(pres)
    assert summary.torsion_order == abs(_det(pres.matrix)) and summary.kernel_basis == ()
    v = (3, -1, 4, 1)
    assert reduce_class(pres, v) == reduce_class(pres, tuple(x + 2 * y for x, y in zip(v, pres.matrix.row(2))))
    assert classes_equal(pres, v, tuple(x - y for x, y in zip(v, pres.matrix.row(1))))
    assert len(torsion_residues(pres)[1]) == summary.torsion_order
    p1_image(pres, box=1)
    assert parity_check(pres)
    assert gamma_orbit_modulus(pres, data.c_ref) == 0
    assert "box" in data.__dict__ and passes["smith"] == 0
    singular = SurgeryPresentation.from_rows([[2, 1, 3], [1, 2, 3], [3, 3, 6]])
    got = homology_summary(singular).kernel_basis
    assert "box" in analysis(singular.matrix).__dict__ and passes["smith"] == 0
    assert got == echelon(smith_kernel(singular.matrix)) == ((1, 1, -1),)


def test_cold_box_runs_one_pass_and_no_full_modulus_hermite(passes, monkeypatch):
    """homology and reduce_class (framed-class) on a fresh nonsingular B run
    one pass and read the box off its adjugate columns until they cut out
    B Z^n: one on coker Z/31, three on the non-cyclic coker.  After `form`,
    the box reads the same columns of the same pass."""
    read = []
    cut = linalg._box

    def counting_box(n, det, adjugate):
        def counted():
            for a in adjugate:
                read.append(a)
                yield a

        return cut(n, det, counted())

    monkeypatch.setattr(linalg, "_box", counting_box)
    cases = (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], 1),  # coker Z/31
        ([[13, 0, -2, -9], [0, 4, 8, 0], [-2, 8, 18, 2], [-9, 0, 2, 7]], 3),  # Z/2 + Z/2 + Z/12
    )
    for rows, want in cases:
        for question in (homology_summary, lambda pres: reduce_class(pres, (1,) * pres.n)):
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            read.clear()
            question(pres)
            assert passes["passes"] == {pres.matrix: 1} and len(read) == want
        box = analysis(pres.matrix).box
        analysis.cache_clear()
        pres = _cold(rows)
        analysis(pres.matrix).form
        passes["passes"].clear()
        read.clear()
        assert analysis(pres.matrix).box == box
        assert not passes["passes"] and len(read) == want
    assert passes["smith"] == 0


def test_only_box_questions_build_the_singular_core(passes):
    """A singular B keeps the box of its core as `box`: the torsion test,
    in_lattice, theta_g and the orbit modulus read the split alone, and the
    questions on the Hermite box build it once, with one more pass, on the
    core."""
    pres = _cold([[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]])  # kernel (1, 1, -1, 0)
    data = analysis(pres.matrix)
    c = (0, 1, 1, 1)
    assert is_torsion_class(pres, c) and not is_torsion_class(pres, (1, 0, 0, 0))
    assert spin_c_equal(pres, c, (4, 3, 7, 1))  # c + 2 B e_0
    theta_g(pres, c)
    assert gamma_orbit_modulus(pres, c) == 0
    assert "box" not in data.__dict__ and len(data.split.kernel) == 1
    assert passes["passes"] == {pres.matrix: 1}
    passes["passes"].clear()
    assert reduce_class(pres, (4, 3, 7, 1)) == reduce_class(pres, c)
    box = data.box
    assert len(box) == 3 and sum(passes["passes"].values()) == 1  # the core's pass
    assert pres.matrix not in passes["passes"]
    assert homology_summary(pres).betti_1 == 1 and len(torsion_residues(pres)[1]) == 45
    assert data.box is box and sum(passes["passes"].values()) == 1
    assert passes["smith"] == 0


def test_cold_theta_borders_by_c_alone(passes):
    """On a fresh nonsingular B, theta_g, p1, hf_grading and parity_check run
    one pass and solve c alone through it, building no integer form."""
    b = [[3, 1, 0], [1, -2, 1], [0, 1, 4]]
    c = (1, 0, 0)
    want = _reference_theta(SurgeryPresentation.from_rows(b), c, -2 * 4 - 3 * 1)
    for question in (
        lambda pres: theta_g(pres, c) == want,
        lambda pres: p1(CombingSpec(pres, c, 1)).value == want + 4,
        lambda pres: hf_grading(CombingSpec(pres, c)) == (2 + want) / 4,
        parity_check,
    ):
        analysis.cache_clear()
        pres = _cold(b)
        passes["passes"].clear()
        assert question(pres)
        assert passes["passes"] == {pres.matrix: 1}
        assert "form" not in analysis(pres.matrix).__dict__
    assert passes["smith"] == 0


def test_cold_singular_theta_borders_by_c_alone(passes):
    """A fresh singular B answers a torsion c, and refuses a non-torsion
    one, from the one pass, solving c alone."""
    b = [[2, 1, 3], [1, 7, 8], [3, 8, 11]]  # kernel (1, 1, -1)
    c = (0, 1, 1)
    pres = _cold(b)
    passes["passes"].clear()
    assert theta_g(pres, c) == _reference_theta(pres, c, _theta_constant(pres))
    assert passes["passes"] == {pres.matrix: 1}
    analysis.cache_clear()
    pres = _cold(b)
    passes["passes"].clear()
    with pytest.raises(NonTorsionError, match="not torsion"):
        theta_g(pres, (0, 1, 3))
    assert passes["passes"] == {pres.matrix: 1}
    assert "form" not in analysis(pres.matrix).__dict__


def test_theta_scan_runs_at_most_one_extra_pass(passes):
    """A theta_g scan on one B runs one pass: the first theta_g solves its c
    alone, the second finds the pass run and builds form once, and every
    later one reads it."""
    b = [[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]]
    pres = _cold(b)
    data = analysis(pres.matrix)
    c_ref = data.c_ref
    passes["passes"].clear()
    values = [theta_g(pres, c_ref)]
    assert passes["passes"] == {pres.matrix: 1} and "form" not in data.__dict__
    values.append(theta_g(pres, tuple(x + 2 for x in c_ref)))
    form = data.form
    values += [theta_g(pres, tuple(x + 2 * k for x in c_ref)) for k in range(2, 100)]
    assert passes["passes"] == {pres.matrix: 1} and data.form is form
    for k in (0, 1, 57, 99):
        c = tuple(x + 2 * k for x in c_ref)
        assert values[k] == _reference_theta(pres, c, _theta_constant(pres))


def test_cold_meridian_pairing_borders_by_its_vectors(passes):
    """meridian_pairing on a fresh B runs one pass and solves its distinct
    vectors alone: a form of width 2 for v != w, of width 1 for v == w."""
    b = [[5, 2, 1], [2, -3, 0], [1, 0, 7]]
    v, w = (1, 0, 2), (0, 3, -1)
    integer_form = linalg._integer_form
    widths = []

    def counting_form(p, vectors):
        widths.append(len(vectors))
        return integer_form(p, vectors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_integer_form", counting_form)
        for args, width in (((v, w), 2), ((w, v), 2), ((v, v), 1)):
            analysis.cache_clear()
            pres = _cold(b)
            passes["passes"].clear()
            widths.clear()
            got = meridian_pairing(pres, *args)
            assert passes["passes"] == {pres.matrix: 1} and widths == [width]
            x = _solution(pres, args[1])
            assert got == -sum((Fraction(a) * y for a, y in zip(args[0], x)), Fraction(0))
    analysis.cache_clear()
    pres = _cold([[2, 1, 3], [1, 7, 8], [3, 8, 11]])  # kernel (1, 1, -1)
    with pytest.raises(NonTorsionError, match="second class"):
        meridian_pairing(pres, (0, 1, 1), (1, 0, 0))
    assert linking_form(pres, (0, 1, 1)) == -_reference_theta(pres, (0, 1, 1), 0) % 1


def test_empty_presentation_reads_form(passes):
    """S^3: theta_g, p1, parity_check and the self-linking of the empty
    class run one pass, on the empty B, and read the form it gives."""
    s3 = _cold([])
    passes["passes"].clear()
    assert theta_g(s3, ()) == -2
    assert p1(CombingSpec(s3, (), 1)).value == 2
    assert parity_check(s3)
    assert meridian_pairing(s3, (), ()) == 0
    assert passes["passes"] == {s3.matrix: 1}


def test_cold_combing_equal_runs_one_pass(passes):
    """combing_equal on a fresh B: the torsion tests, spin_c_equal and both
    p1 values come from one pass, in the order combing_equal asks them."""
    b = [[3, 1, 0], [1, -2, 1], [0, 1, 4]]
    c, other = (1, 0, 0), (7, 2, 0)  # c + 2 B e_0, so theta_g grows by 4 (c_0 + b_00)
    for gamma_offset, equal in ((-4, True), (0, False)):
        analysis.cache_clear()
        pres = _cold(b)
        passes["passes"].clear()
        assert combing_equal(CombingSpec(pres, c), CombingSpec(pres, other, gamma_offset)) == equal
        assert passes["passes"] == {pres.matrix: 1}
    singular = _cold([[2, 1, 3], [1, 7, 8], [3, 8, 11]])  # kernel (1, 1, -1)
    for x, y, message in (((0, 1, 3), (0, 1, 1), "first"), ((0, 1, 1), (0, 1, 3), "second")):
        with pytest.raises(NonTorsionError, match=message):
            combing_equal(CombingSpec(singular, x), CombingSpec(singular, y))


def _cold(rows):
    pres = SurgeryPresentation.from_rows(rows)
    assert analysis(pres.matrix).__dict__.keys() == {"matrix"}  # a fresh memo entry
    return pres


def test_signature_level_questions_build_no_homology():
    """parity_check reads dim H_1(M; F_2) off the F_2 elimination of c_ref
    and betti_1 off the signature, gamma_orbit_modulus on nonsingular B
    reads the signature alone, and on singular B the kernel basis of the
    split: none builds the homology summary or the box."""
    built = {"homology", "box"}
    for rows in (
        [[3, 2, 0, 1], [2, -5, 1, 0], [0, 1, 6, 2], [1, 0, 2, -7]],  # nonsingular
        [[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 0]],  # rank 2
    ):
        pres = _cold(rows)
        assert parity_check(pres)
        assert not built & analysis(pres.matrix).__dict__.keys()
    pres = _cold([[5, 2, 1], [2, -3, 0], [1, 0, 7]])
    assert gamma_orbit_modulus(pres, analysis(pres.matrix).c_ref) == 0
    assert not built & analysis(pres.matrix).__dict__.keys()
    pres = _cold([[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 4]])  # kernel (1, 1, -1, 0)
    assert gamma_orbit_modulus(pres, (2, 1, 1, 0)) == 2
    assert gamma_orbit_modulus(pres, (0, 1, 3, 0)) == 2
    assert gamma_orbit_modulus(pres, (0, 3, 1, 0)) == 2
    assert not built & analysis(pres.matrix).__dict__.keys()


def test_dim_h1_mod2_matches_f2_rank():
    for _, pres in PRESENTATIONS:
        want = pres.n - f2_rank(pres.matrix.to_rows())
        data = analysis(pres.matrix)
        assert data.homology.dim_h1_mod2 == data.dim_h1_mod2 == want


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
