"""The integer form G/L and the per-matrix memo against the references
kept in linalg (solve_rational over Q, solve_integer over Z)."""

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import eig_sign_counts, f2_rank
from combings.combing import (
    euler_class,
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
    solve_integer,
    solve_rational,
)
from combings.surgery import (
    SurgeryPresentation,
    is_torsion_class,
    meridian_pairing,
)
from combings.verify import (
    random_matrix,
    random_symmetric,
    random_torsion_characteristic,
    random_unimodular,
)


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
            b = p.transpose() @ IntMatrix.from_diagonal(n, n, d) @ p
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


@pytest.mark.parametrize("index", range(len(PRESENTATIONS)))
def test_form_agrees_with_fraction_solve(index):
    rng, pres = PRESENTATIONS[index]
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


def test_form_is_inverse_for_nonsingular():
    for _, pres in PRESENTATIONS:
        if smith_normal_form(pres.matrix).rank < pres.n:
            continue
        form = analysis(pres.matrix).form
        g = IntMatrix.from_rows(form.G)
        assert pres.matrix @ g == IntMatrix.from_diagonal(pres.n, pres.n, [form.L] * pres.n)


def test_dim_h1_mod2_matches_f2_rank():
    for _, pres in PRESENTATIONS:
        want = pres.n - f2_rank(pres.matrix.to_rows())
        assert analysis(pres.matrix).homology.dim_h1_mod2 == want


def test_tracked_u_inverse_matches_reference():
    rng = random.Random(3)
    for _ in range(120):
        a = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7), bound=6)
        data = analysis(a)
        u = data.snf.U
        assert u @ data.u_inverse == IntMatrix.identity(a.rows)
        assert data.u_inverse @ u == IntMatrix.identity(a.rows)


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
