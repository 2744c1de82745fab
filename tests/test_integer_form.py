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
    dense,
    echelon,
    eig_sign_counts,
    f2_rank,
    frac_inverse,
    frac_rank,
    frac_solve,
    naive_det,
    product,
    reference,
    smith_coordinates,
    smith_generators,
    smith_kernel,
    solve_integer,
    torsion_pairs,
    transpose,
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
    torsion_columns,
)
from combings.verify import (
    random_symmetric,
    random_torsion_characteristic,
    random_torsion_vector,
    random_unimodular,
    saturation_basis,
)


def _diagonal(d):
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


def _presentations(seed, count, max_n=8, singular_every=3):
    """Random symmetric B with n in 1..max_n; every third one (or every
    `singular_every`-th) is P^T D P with a zero in D, hence singular."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        n = rng.randint(1, max_n)
        if k % singular_every == singular_every - 1:
            d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
            d[rng.randrange(n)] = 0
            p = random_unimodular(rng, n, steps=2 * n)
            b = product(transpose(p), _diagonal(d), p)
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
            b = product(transpose(p), _diagonal(d), p)
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
        out.append((rng, SurgeryPresentation(product(transpose(a), _diagonal(d), a))))
    return out


LARGE_SINGULAR_PRESENTATIONS = _large_singular_presentations(43, 4)


def _assert_generalized_inverse(b):
    """B G B = L B with L >= 1: G / L is a generalized inverse of B."""
    form = analysis(b).form
    assert form.L >= 1
    g = IntMatrix.from_rows(form.G)
    assert product(b, g, b) == IntMatrix(b.rows, b.cols, tuple(form.L * x for x in b.entries))


@pytest.mark.parametrize("index", range(len(RADICAL_PRESENTATIONS)))
def test_singular_form_agrees_with_references_on_wide_kernel(index):
    """The integer form of a B with a kernel of rank >= 2 against
    frac_solve and solve_integer."""
    rng, pres = RADICAL_PRESENTATIONS[index]
    diag = smith_normal_form(pres.matrix).diag
    assert diag.count(0) >= 2
    _assert_generalized_inverse(pres.matrix)
    _check_against_references(rng, pres)
    L, classes = torsion_pairs(pres, cap=5000)
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
                b = product(transpose(p), IntMatrix.from_rows(d), p)
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


# a singular B whose torsion form has a smaller denominator than `form`
SMALL_TORSION_L = [[5, -2, -1, 5], [-2, 4, 2, -2], [-1, 2, 1, -1], [5, -2, -1, 5]]


def test_torsion_form_is_the_pairing_of_its_generators():
    """Q_ij / L = g_i^T B^+ g_j (mod 1) against the Fraction solve of
    B x = g_j, on nonsingular and singular B; the torsion form's L divides
    that of `form`, and is smaller on SMALL_TORSION_L (4 against 16)."""
    families = (TORSION_PRESENTATIONS, DERIVED_PRESENTATIONS,
                [SurgeryPresentation.from_rows(SMALL_TORSION_L)])
    smaller = singular = 0
    for pres in itertools.chain(*families):
        rows = pres.matrix.to_rows()
        data = linalg.MatrixAnalysis(pres.matrix)
        tf, form = data.torsion_form, data.form
        g = list(zip(*tf.generators))
        for i, gi in enumerate(g):
            for j, gj in enumerate(g):
                value = sum(map(mul, gi, frac_solve(rows, gj)[0]), Fraction(0))
                assert (Fraction(tf.Q[i][j], tf.L) - value).denominator == 1, rows
        assert form.L % tf.L == 0
        smaller += tf.L != form.L
        singular += bool(data._pass.kernel)
    data = linalg.MatrixAnalysis(IntMatrix.from_rows(SMALL_TORSION_L))
    assert (data.torsion_form.L, data.form.L) == (4, 16)
    assert smaller >= 1 and singular >= len(TORSION_PRESENTATIONS) // 3


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
    got = [rep for rep, _ in torsion_pairs(pres, cap=3000)[1]]
    assert len(got) == len(want) == len(set(map(coords, got)))
    assert sorted(map(coords, got)) == sorted(map(coords, want))
    _assert_saturation_basis(pres)


@pytest.mark.parametrize("index", range(len(TORSION_PRESENTATIONS)))
def test_smith_coordinates_agree_with_fraction_route(index):
    """torsion_columns against U^{-1} y over the Smith coordinates y, with
    the n x n linking form: the same classes with the same values r / L,
    each once, for singular and nonsingular B alike; every representative
    is its own reduce_class.  The formula side of p1_image is
    p_1(reference) - 4 lk built with Fractions."""
    pres = TORSION_PRESENTATIONS[index]
    want = []
    for rep in _oracle_lifts(pres, _oracle_u_inverse(pres)):
        assert _solution(pres, rep) is not None
        want.append((rep, linking_form(pres, rep)))
    L, got = torsion_pairs(pres, cap=3000)
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
        out.append((rng, SurgeryPresentation(product(transpose(p), signs, p))))
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
    hermite = dense(analysis(b).box)
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
    L, got = torsion_pairs(pres, cap=3000)
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
    h_ii > 1 and Q = G[T, T] mod L.  in_lattice holds the columns of H and
    no e_i at a position of T."""
    _, pres = HERMITE_PRESENTATIONS[index]
    b, n = pres.matrix, pres.n
    data = linalg.MatrixAnalysis(b)  # a fresh analysis, outside the memo
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert data.split == (identity, identity, (), ())
    assert "form" not in data.__dict__ and "box" not in data.__dict__
    hermite = data.box
    assert dense(hermite) == reference(b.to_rows())
    form = data.form
    positions = [i for i, col in enumerate(hermite) if col[i] > 1]
    tf = data.torsion_form
    assert data.box is hermite
    assert tf.factors == tuple(hermite[i][i] for i in positions)
    assert tf.generators == tuple(tuple(int(k == i) for i in positions) for k in range(n))
    assert tf.Q == tuple(tuple(form.G[i][j] % form.L for j in positions) for i in positions)
    assert all(data.in_lattice(col + (0,) * (n - j - 1)) for j, col in enumerate(dense(hermite)))
    assert not any(data.in_lattice(tuple(int(k == i) for k in range(n))) for i in positions)


@pytest.mark.parametrize("index", range(len(HERMITE_PRESENTATIONS)))
def test_nonsingular_lattice_rows_are_g(index):
    """R_1 = I on a nonsingular B, so in_lattice reads the entries of G_0 c
    itself, with no split: cold, D_r G_0 c solved through the pass; warm,
    G c off the packed columns of G (`_product`), each entry tested for a
    multiple of L.  It agrees with the Fraction solve, cold and warm, on
    vectors of B Z^n and on random ones."""
    _, pres = HERMITE_PRESENTATIONS[index]
    b, n = pres.matrix, pres.n
    rng = random.Random(f"lattice:{index}")
    vectors = [b.matvec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(3)]
    vectors += [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(3)]
    want = {c: all(x.denominator == 1 for x in _solution(pres, c)) for c in vectors}
    for cold in vectors:  # each vector once as the first question of an entry
        data = linalg.MatrixAnalysis(b)
        for c in (cold, *vectors):
            assert data.in_lattice(c) == want[c], (b, c)
        assert "split" not in data.__dict__ and "form" in data.__dict__


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
        assert product(pres.matrix, g) == _diagonal([form.L] * pres.n)
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
    spin_c_equal answers from one solve, then from form, and the split: one
    pass, with no box and no Smith form."""
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
    """Every question on a fresh entry runs one symmetric pass, on B, which
    gives the signature, det B, the kernel, `form` and the box, and none on
    any other matrix: a singular B's box and torsion order read B's pass
    too."""
    questions = (
        lambda pres, c: theta_g(pres, c),
        lambda pres, c: p1(CombingSpec(pres, c, 1)),
        lambda pres, c: hf_grading(CombingSpec(pres, c)),
        lambda pres, c: euler_class(pres, c),
        lambda pres, c: spin_c_equal(pres, c, c),
        lambda pres, c: combing_equal(CombingSpec(pres, c), CombingSpec(pres, c)),
        lambda pres, c: gamma_orbit_modulus(pres, c),
        lambda pres, c: parity_check(pres),
        lambda pres, c: is_torsion_class(pres, c),
        lambda pres, c: meridian_pairing(pres, c, c),
        lambda pres, c: linking_form(pres, c),
        lambda pres, c: homology_summary(pres),
        lambda pres, c: reduce_class(pres, c),
        lambda pres, c: classes_equal(pres, c, c),
        lambda pres, c: torsion_columns(pres),
        lambda pres, c: p1_image(pres, box=1),
    )
    for rows, c in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], (1, 0, 0)),
        ([[2, 1, 3], [1, 7, 8], [3, 8, 11]], (0, 1, 1)),  # kernel (1, 1, -1)
    ):
        for question in questions:
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            question(pres, c)
            assert passes["passes"] == {pres.matrix: 1}
    assert passes["smith"] == 0


def test_cold_torsion_walk_reads_the_torsion_form(passes):
    """torsion_columns (linking-form) and p1_image read the factors of the
    torsion form: one pass, on B, nonsingular or singular, and no homology
    summary."""
    for rows in (
        [[3, 1, 0], [1, -2, 1], [0, 1, 4]],
        [[2, 1, 3], [1, 5, 6], [3, 6, 9]],  # kernel (1, 1, -1)
    ):
        for question in (torsion_columns, lambda pres: p1_image(pres, box=1)):
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            question(pres)
            assert passes["passes"] == {pres.matrix: 1}
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
        torsion_columns(pres, cap=30)
    assert len(torsion_columns(pres, cap=31)[2]) == 31
    assert passes["smith"] == 0


def test_cold_torsion_form_builds_no_form(passes):
    """The torsion form solves its k generators through the pass, and the
    order of a singular B is |D_r| / det(A)^2, off the pass: a cold
    torsion_columns, torsion_form or torsion_order builds no `form`, on
    nonsingular and singular B."""
    for rows in (
        [[3, 1, 0], [1, -2, 1], [0, 1, 4]],
        [[2, 1, 3], [1, 5, 6], [3, 6, 9]],  # kernel (1, 1, -1), coker Z + (Z/3)^2
        [[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]],  # order 45
    ):
        for question in (
            torsion_columns,
            lambda pres: analysis(pres.matrix).torsion_form,
            lambda pres: analysis(pres.matrix).torsion_order,
        ):
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            question(pres)
            assert passes["passes"][pres.matrix] == 1
            assert "form" not in analysis(pres.matrix).__dict__
    assert passes["smith"] == 0


def test_refused_singular_torsion_walk_builds_no_form(passes):
    """A cold torsion_columns (linking-form) or p1_image (image-p1) on a
    singular B whose order is over the cap reads the order off the pass and
    the split and is refused before the box, `form` or the torsion form is
    built, as on a nonsingular B: one pass, on B."""
    b = [[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]]  # order 45
    for question in (torsion_columns, lambda pres, cap: p1_image(pres, cap=cap, box=0)):
        analysis.cache_clear()
        pres = _cold(b)
        passes["passes"].clear()
        with pytest.raises(CapExceededError, match="^torsion order 45 exceeds cap 44$"):
            question(pres, cap=44)
        assert passes["passes"] == {pres.matrix: 1}
        assert not {"box", "form", "torsion_form"} & analysis(pres.matrix).__dict__.keys()
    assert len(torsion_columns(pres, cap=45)[2]) == 45
    assert "form" not in analysis(pres.matrix).__dict__
    assert passes["smith"] == 0


def test_one_pass_per_fresh_entry_in_any_order(passes):
    """signature, form, box and pairing, asked in each of the 24 orders on a
    fresh entry, run one pass, on B, nonsingular or singular; each answer
    equals that of an entry that was asked it alone."""
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
            "pairing": lambda data: data.pairing(v, v),
        }
        alone = {name: ask(linalg.MatrixAnalysis(b)) for name, ask in questions.items()}
        for order in itertools.permutations(questions):
            passes["passes"].clear()
            data = linalg.MatrixAnalysis(b)
            for name in order:
                assert questions[name](data) == alone[name], order
            assert passes["passes"] == {b: 1}
    assert passes["smith"] == 0


def test_parity_then_homology_run_one_pass(passes):
    """parity_check (a cold theta_g) and then homology_summary on a fresh
    nonsingular B: the box reads the adjugate columns of the pass theta_g
    ran, with no second pass."""
    pres = _cold([[3, 1, 0], [1, -2, 1], [0, 1, 4]])
    passes["passes"].clear()
    assert parity_check(pres)
    assert homology_summary(pres).invariant_factors == (31,)
    assert passes["passes"] == {pres.matrix: 1}


def test_singular_homology_runs_one_pass(passes):
    """homology_summary on a fresh singular B runs one pass, on B: its
    kernel vectors give the split, and the core B' = W_1^T B W_1 is never
    built, since its box reads solves through B's pass."""
    pres = _cold([[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]])  # kernel (1, 1, -1, 0)
    passes["passes"].clear()
    summary = homology_summary(pres)
    assert summary.betti_1 == 1 and summary.torsion_order == 45
    assert passes["passes"] == {pres.matrix: 1}
    assert passes["smith"] == 0


def test_nonsingular_questions_build_no_smith_form(passes):
    """theta_g, spin_c_equal, euler_class and is_torsion_class on nonsingular
    B read the pass and the integer form only; is_torsion_class builds no
    integer form.  On singular B, theta_g and is_torsion_class read the
    pass's kernel vectors.  homology_summary, reduce_class,
    classes_equal, torsion_columns, p1_image, parity_check and
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
    assert len(torsion_columns(pres)[2]) == summary.torsion_order
    p1_image(pres, box=1)
    assert parity_check(pres)
    assert gamma_orbit_modulus(pres, data.c_ref) == 0
    assert "box" in data.__dict__ and passes["smith"] == 0
    singular = SurgeryPresentation.from_rows([[2, 1, 3], [1, 2, 3], [3, 3, 6]])
    got = homology_summary(singular).kernel_basis
    assert "box" in analysis(singular.matrix).__dict__ and passes["smith"] == 0
    assert got == echelon(smith_kernel(singular.matrix)) == ((1, 1, -1),)


def test_cold_box_runs_one_pass_and_reads_adjugate_columns(passes, monkeypatch):
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


def test_only_box_questions_build_the_singular_box(passes):
    """A singular B keeps the box of its core as `box`: the torsion test,
    in_lattice, theta_g and the orbit modulus read the split alone, and the
    questions on the Hermite box build it once, with no further pass."""
    pres = _cold([[2, 1, 3, 0], [1, 5, 6, 0], [3, 6, 9, 0], [0, 0, 0, 5]])  # kernel (1, 1, -1, 0)
    data = analysis(pres.matrix)
    c = (0, 1, 1, 1)
    assert is_torsion_class(pres, c) and not is_torsion_class(pres, (1, 0, 0, 0))
    assert spin_c_equal(pres, c, (4, 3, 7, 1))  # c + 2 B e_0
    theta_g(pres, c)
    assert gamma_orbit_modulus(pres, c) == 0
    assert "box" not in data.__dict__ and len(data.split.kernel) == 1
    assert passes["passes"] == {pres.matrix: 1}
    assert reduce_class(pres, (4, 3, 7, 1)) == reduce_class(pres, c)
    box = data.box
    assert len(box) == 3 and passes["passes"] == {pres.matrix: 1}
    assert homology_summary(pres).betti_1 == 1 and len(torsion_columns(pres)[2]) == 45
    assert data.box is box and passes["passes"] == {pres.matrix: 1}
    assert passes["smith"] == 0


def test_cold_theta_solves_c_alone(passes):
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


def test_cold_singular_theta_solves_c_alone(passes):
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


def test_theta_scan_runs_one_pass(passes, solves):
    """A theta_g scan on one B runs one pass: its first question solves c
    alone, its second builds `form`, n solves, and every later one reads
    that `form` with no solve."""
    b = [[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]]
    pres = _cold(b)
    data = analysis(pres.matrix)
    c_ref = data.c_ref
    passes["passes"].clear()
    values, built = [], []
    for k in range(100):
        values.append(theta_g(pres, tuple(x + 2 * k for x in c_ref)))
        built.append((len(solves), "form" in data.__dict__))
    assert built == [(1, False)] + [(1 + pres.n, True)] * 99
    assert passes["passes"] == {pres.matrix: 1}
    for k in (0, 1, 57, 99):
        c = tuple(x + 2 * k for x in c_ref)
        assert values[k] == _reference_theta(pres, c, _theta_constant(pres))


def test_warm_theta_makes_no_solve(passes, solves):
    """Once a scan on B has asked its first two questions, a warm theta_g,
    p1 or hf_grading runs no pass and no solve: it reads G c off the packed
    columns of G (`_product`), packed once beside `form`, on nonsingular and
    singular B; these small c never widen the slots."""
    for rows in (
        [[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]],
        [[2, 1, 3], [1, 7, 8], [3, 8, 11]],  # kernel (1, 1, -1)
    ):
        pres = _cold(rows)
        data = analysis(pres.matrix)
        c_ref = data.c_ref
        theta_g(pres, c_ref)
        theta_g(pres, c_ref)
        packed = data._packed
        passes["passes"].clear()
        solves.clear()
        for k in range(1, 6):
            u = [(k * (i + 2)) % 5 - 2 for i in range(pres.n)]
            c = tuple(x + 2 * y for x, y in zip(c_ref, pres.matrix.matvec(u)))
            want = _reference_theta(pres, c, _theta_constant(pres))
            assert theta_g(pres, c) == want
            assert p1(CombingSpec(pres, c, k)).value == want + 4 * k
            assert hf_grading(CombingSpec(pres, c, -k)) == (2 + want - 4 * k) / 4
        assert solves == [] and not passes["passes"] and data._packed is packed


WARM_COLD_PRESENTATIONS = _presentations(23, 300, singular_every=5)


def test_theta_agrees_cold_and_warm():
    """theta_g, p1 and hf_grading give equal Fractions on a cold entry,
    whose first vector question solves c through the pass, and on the same
    entry warm, which reads G c off the packed columns of `form`'s G
    (`_product`); the value is the Fraction reference.  300 seeded B, every
    fifth singular, each with a torsion characteristic c."""
    questions = (
        lambda pres, c: theta_g(pres, c),
        lambda pres, c: p1(CombingSpec(pres, c, 3)).value,
        lambda pres, c: hf_grading(CombingSpec(pres, c, -1)),
    )
    singular = 0
    for rng, pres in WARM_COLD_PRESENTATIONS:
        c = random_torsion_characteristic(rng, pres)
        values = []
        for question in questions:
            analysis.cache_clear()
            data = analysis(pres.matrix)
            cold = question(pres, c)
            assert data._asked and "form" not in data.__dict__
            warm = question(pres, c)
            assert "_packed" in data.__dict__
            assert type(cold) is type(warm) is Fraction and cold == warm, (pres.matrix, c)
            values.append(cold)
        want = _reference_theta(pres, c, _theta_constant(pres))
        assert values == [want, want + 12, (want - 2) / 4], (pres.matrix, c)
        singular += bool(data._pass.kernel)
    assert singular >= 60


def test_square_is_the_self_pairing():
    """square(c) is pairing(c, c): on a cold entry both solve c through the
    pass, over d = D_r; on a warm one both read G c off the packed columns
    of G (`_product`), over d = L.  The same 300 B, torsion c."""
    for rng, pres in WARM_COLD_PRESENTATIONS:
        b = pres.matrix
        vectors = [random_torsion_vector(rng, pres) for _ in range(3)]
        cold = linalg.MatrixAnalysis(b)
        q, d = cold.square(vectors[0])
        assert d == cold._pass.minor
        assert Fraction(q, d) == linalg.MatrixAnalysis(b).pairing(vectors[0], vectors[0])
        warm = linalg.MatrixAnalysis(b)
        warm.pairing(vectors[0], vectors[0])  # its first vector question
        for v in vectors:
            q, d = warm.square(v)
            assert d == warm.form.L and Fraction(q, d) == warm.pairing(v, v), (b, v)
            assert Fraction(q, d) == _reference_theta(pres, v, 0), (b, v)


PACKING_PRESENTATIONS = [(random.Random("packing:empty"), SurgeryPresentation(IntMatrix(0, 0, ())))]
PACKING_PRESENTATIONS += _presentations(71, 200, max_n=9, singular_every=5)
PACKING_BITS = (1, 3, 8, 40, 61, 62, 63, 64, 65, 100, 127, 128, 129, 200, 300)


def _g_c(data, c):
    return tuple(sum(map(mul, row, c)) for row in data.form.G)


def test_packed_product_is_g_c():
    """_product(c) equals the row products of G on 201 B, n 0 to 9, every
    fifth singular, for c of every size up to 2^300 asked in a seeded
    order: a c too wide for the slots packs G again, wider, and every c
    after it reads the wide packing."""
    widened = 0
    for rng, pres in PACKING_PRESENTATIONS:
        data = linalg.MatrixAnalysis(pres.matrix)
        for k, bits in enumerate(rng.sample(PACKING_BITS, len(PACKING_BITS))):
            c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(pres.n)]
            before = data._packed
            assert data._product(c) == _g_c(data, c), (pres.matrix, c)
            widened += k > 0 and data._packed is not before
            _, _, room, _, _ = data._packed
            assert room >= max(map(abs, c), default=0).bit_length()
    assert widened >= 200


def test_packed_slots_hold_n_entries_at_their_bound():
    """The slots of a packing must hold n entries' worth of bits: on the
    Cartan matrices of A_n every entry of G is positive, so the c whose
    entries are the largest the slot of one product G_ij c_j admits
    (bits(max|G|) + bits(c) + 2 = 64) fills slot i with n such products,
    past 2^63, and each must still read back exactly, with c and -c."""
    for n in (8, 12, 17):
        rows = [[2 * (i == j) - (abs(i - j) == 1) for j in range(n)] for i in range(n)]
        data = linalg.MatrixAnalysis(IntMatrix.from_rows(rows))
        top = max(map(max, data.form.G))
        assert min(map(min, data.form.G)) > 0
        c = [(1 << 62 - top.bit_length()) - 1] * n
        assert max(map(sum, data.form.G)) * c[0] >= 1 << 63  # past one word's half
        for v in (c, [-x for x in c]):
            assert data._product(v) == _g_c(data, v), (n, v)


def test_warm_entry_reads_huge_then_small_c():
    """On a warm entry, theta_g, spin_c_equal and pairing of a c with
    entries near 2^300, then of small c, and of a huge c again, all give the
    Fraction reference: the entry keeps its widest packing, and a small c
    reads it exactly."""
    for rows in (
        [[3, 1, 0, 2], [1, -2, 1, 0], [0, 1, 4, -1], [2, 0, -1, 5]],
        [[2, 1, 3], [1, 7, 8], [3, 8, 11]],  # kernel (1, 1, -1)
    ):
        analysis.cache_clear()
        pres = _cold(rows)
        data = analysis(pres.matrix)
        c_ref = data.c_ref
        theta_g(pres, c_ref)  # the cold question
        rng = random.Random(f"huge:{rows}")
        for bits in (300, 2, 5, 1, 299, 3):
            u = [rng.randint(-(1 << bits), 1 << bits) for _ in range(pres.n)]
            c = tuple(x + 2 * y for x, y in zip(c_ref, pres.matrix.matvec(u)))
            assert theta_g(pres, c) == _reference_theta(pres, c, _theta_constant(pres)), c
            assert spin_c_equal(pres, c, c_ref)
            v = random_torsion_vector(rng, pres)
            assert data.pairing(v, c) == sum(map(mul, v, _solution(pres, c))), (v, c)
        _, words, _, _, _ = data._packed
        assert words > 1


def test_cold_meridian_pairing_solves_w_alone(passes, solves):
    """meridian_pairing on a fresh B runs one pass and one solve through it,
    of w alone, for v != w and for v == w, and builds no `form`."""
    b = [[5, 2, 1], [2, -3, 0], [1, 0, 7]]
    v, w = (1, 0, 2), (0, 3, -1)
    for args in ((v, w), (w, v), (v, v)):
        analysis.cache_clear()
        pres = _cold(b)
        passes["passes"].clear()
        solves.clear()
        got = meridian_pairing(pres, *args)
        assert passes["passes"] == {pres.matrix: 1} and solves == [args[1]]
        assert "form" not in analysis(pres.matrix).__dict__
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


def test_cold_combing_equal_runs_one_pass(passes, solves):
    """combing_equal on a fresh B: the torsion tests and then one vector
    question, one solve of (c - c') / 2 whose solution answers both the
    Spin^c test and the p_1 test, so one pass and one solve and no `form`
    or box, on nonsingular and singular B, for equal and unequal pairs."""
    for rows, c in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], (1, 0, 0)),
        ([[2, 1, 3], [1, 7, 8], [3, 8, 11]], (0, 1, 1)),  # kernel (1, 1, -1)
    ):
        b = IntMatrix.from_rows(rows)
        # c + 2 B e_0, so theta_g grows by 4 (c_0 + b_00), and c - 2 (1, 0, 1),
        # a torsion (1, 0, 1) outside B Z^3
        inside = tuple(x + 2 * y for x, y in zip(c, b.row(0)))
        outside = tuple(x - 2 * y for x, y in zip(c, (1, 0, 1)))
        built = {"matrix", "_asked", "_pass"} | ({"split"} if rows[0][0] == 2 else set())
        for other, gamma_offset, equal in (
            (inside, -c[0] - b.at(0, 0), True),
            (inside, 0, False),
            (outside, 0, False),
        ):
            analysis.cache_clear()
            pres = _cold(rows)
            passes["passes"].clear()
            solves.clear()
            assert combing_equal(CombingSpec(pres, c), CombingSpec(pres, other, gamma_offset)) == equal
            assert passes["passes"] == {b: 1}
            assert solves == [tuple((x - y) // 2 for x, y in zip(c, other))]
            assert analysis(b).__dict__.keys() == built
    analysis.cache_clear()
    singular = _cold([[2, 1, 3], [1, 7, 8], [3, 8, 11]])  # kernel (1, 1, -1)
    for x, y, message in (((0, 1, 3), (0, 1, 1), "first"), ((0, 1, 1), (0, 1, 3), "second")):
        with pytest.raises(NonTorsionError, match=message):
            combing_equal(CombingSpec(singular, x), CombingSpec(singular, y))


@pytest.fixture
def solves(monkeypatch):
    """A log of the vectors solved through a pass (`BareissPass.solve`),
    adjugate columns of the box and columns of `form` included."""
    log = []
    solve = linalg.BareissPass.solve

    def counting_solve(p, vector):
        log.append(tuple(vector))
        return solve(p, vector)

    monkeypatch.setattr(linalg.BareissPass, "solve", counting_solve)
    return log


def test_cold_membership_runs_one_pass_and_one_solve(passes, solves):
    """A cold spin_c_equal or euler_class is one vector question: one pass
    and one solve, of (c - c') / 2 or of c, and no `form`, on nonsingular
    and singular B (whose split the membership reads, with no core)."""
    for rows, c in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], (1, 0, 0)),
        ([[2, 1, 3], [1, 7, 8], [3, 8, 11]], (0, 1, 1)),  # kernel (1, 1, -1)
    ):
        b = IntMatrix.from_rows(rows)
        # c + 2 B e_0, in the Spin^c structure of c, and c - 2 (1, 0, 1), a
        # torsion (1, 0, 1) outside B Z^3
        inside = tuple(x + 2 * y for x, y in zip(c, b.row(0)))
        outside = tuple(x - 2 * y for x, y in zip(c, (1, 0, 1)))
        for other, want in ((inside, True), (outside, False)):
            half = tuple((x - y) // 2 for x, y in zip(c, other))
            for question, solved, answer in (
                (lambda pres: spin_c_equal(pres, c, other), half, want),
                (lambda pres: euler_class(pres, other).is_zero, other, False),
            ):
                analysis.cache_clear()
                pres = _cold(rows)
                passes["passes"].clear()
                passes["smith"] = 0
                solves.clear()
                assert question(pres) == answer
                assert passes == {"passes": {b: 1}, "smith": 0} and solves == [solved]
                assert "form" not in analysis(b).__dict__
                assert answer == _in_lattice(pres, solved)


def test_theta_after_homology_builds_no_form(passes, solves):
    """The box's adjugate columns are no vector question: a theta_g after
    homology_summary on one B is the entry's first, solved alone."""
    for rows, c in (
        ([[3, 1, 0], [1, -2, 1], [0, 1, 4]], (1, 0, 0)),
        ([[2, 1, 3], [1, 7, 8], [3, 8, 11]], (0, 1, 1)),  # kernel (1, 1, -1)
    ):
        analysis.cache_clear()
        pres = _cold(rows)
        homology_summary(pres)
        solves.clear()
        assert theta_g(pres, c) == _reference_theta(pres, c, _theta_constant(pres))
        assert solves == [c] and "form" not in analysis(pres.matrix).__dict__


def _membership_cases():
    """B = [[-4, 2], [2, -1]], on which R_1 y and y disagree for c = (-2, 1),
    and the singular and nonsingular B of the seeded families."""
    out = [SurgeryPresentation.from_rows([[-4, 2], [2, -1]])]
    for family in (PRESENTATIONS, RADICAL_PRESENTATIONS, LARGE_SINGULAR_PRESENTATIONS):
        out += [pres for _, pres in family]
    return out


def test_in_lattice_agrees_cold_and_warm():
    """in_lattice against solve_integer on lattice vectors B u, torsion
    vectors B u / g and random vectors, each asked first on a fresh entry
    (one solve) and then on an entry that reads `form`, over singular and
    nonsingular B; (-2, 1) = B (0, -1) lies in the lattice of
    [[-4, 2], [2, -1]], whose core is [[-1]] with R_1 = (-2, 1)."""
    rng = random.Random(12)
    singular = inside = 0
    for pres in _membership_cases():
        b, n = pres.matrix, pres.n
        vectors = [(-2, 1)] if n == 2 and b.entries == (-4, 2, 2, -1) else []
        for _ in range(3):
            u = [rng.randint(-3, 3) for _ in range(n)]
            ba = b.matvec(u)
            vectors += [ba, tuple(x // (math.gcd(*ba) or 1) for x in ba)]
            vectors.append(tuple(rng.randint(-5, 5) for _ in range(n)))
        want = {v: _in_lattice(pres, v) for v in vectors}
        warm = linalg.MatrixAnalysis(b)
        warm.pairing(vectors[0], vectors[0])  # its first vector question
        for v in vectors:
            assert linalg.MatrixAnalysis(b).in_lattice(v) == want[v], (b, v)
            assert warm.in_lattice(v) == want[v], (b, v)
        assert "form" in warm.__dict__
        singular += bool(warm._pass.kernel)
        inside += sum(want.values())
    assert singular >= 60 and inside >= 300


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
