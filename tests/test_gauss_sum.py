"""theta_g against an outside law on every nonsingular B: the Gauss sum of
theta_g over the Spin^c structures (van der Blij 1959, An invariant of
quadratic forms mod 8; Milnor-Husemoller, Symmetric Bilinear Forms, 1973,
Ch. II 5).

For a nonsingular symmetric integer B, the characteristic vectors modulo
2 B Z^n are the |det B| vectors c_ref + 2x, x over coker B, and

    sum exp(pi i c^T B^{-1} c / 4) = sqrt|det B| exp(pi i sig(B) / 4).

With theta_g = c^T B^{-1} c - 2(n+1) - 3 sig(B) this reads

    sum_s exp(2 pi i theta_g(s) / 8) = sqrt|det B| (-i)^(sig + n + 1).

The x are the representatives of `torsion_residues`, so the law also checks
that they are complete and distinct as Spin^c structures.  |det B| and the
signature come from the characteristic polynomial (`_oracles`), not from the
library.  The positive-definite E_8 is a check by hand: one class, c = 0,
theta_g = -42, and both sides are -i.
"""

import cmath
import itertools
import math
import random
from collections import Counter

import pytest

from _oracles import charpoly, eig_sign_counts
from combings.combing import reference_parallelization, theta_g
from combings.surgery import SurgeryPresentation, homology_summary, torsion_residues
from combings.verify import random_symmetric

# no input has more classes than this, so a sum has at most CAP unit terms
CAP = 10_000
# each term is exp of an exact residue over 8L, rounded once, so over at
# most CAP terms the rounding stays below 1e-11.  A wrong constant in theta_g
# multiplies the sum by a unit exp(pi i k / 4) != 1, which moves it by at
# least 0.76 sqrt|det B| >= 0.76, and a dropped or duplicated class moves it
# by a unit term or more
TOLERANCE = 1e-6

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, -1],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 0, 0, 2],
]


def _a(k, rng):
    """The Cartan matrix of A_k (det k + 1, positive definite) under a
    seeded signed permutation P, as P^T A_k P."""
    perm = rng.sample(range(k), k)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    a = [[2 if i == j else -int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
    return [[signs[i] * signs[j] * a[perm[i]][perm[j]] for j in range(k)] for i in range(k)]


def _block_sum(a, b):
    return [list(row) + [0] * len(b) for row in a] + [[0] * len(a) + list(row) for row in b]


def _negative(rows):
    return [[-x for x in row] for row in rows]


def _det_and_signature(rows):
    n = len(rows)
    plus, minus, _ = eig_sign_counts(rows)
    return (-1) ** n * charpoly(rows)[-1], plus - minus


def _random_family(seed, count):
    """Seeded nonsingular B with n in 1..4 and entries in -5..5 whose
    |det B| is at most CAP."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = random_symmetric(rng, rng.randint(1, 4), 5).to_rows()
        if 0 < abs(_det_and_signature(rows)[0]) <= CAP:
            out.append(rows)
    return out


def _gauss_sum(rows):
    """The number of classes and sum_s exp(2 pi i theta_g(s) / 8) over
    s = c_ref + 2x, x over the representatives of torsion_residues.
    theta_g L is an integer, so the classes are counted by theta_g L mod 8L
    and the count vector is evaluated once in complex floats."""
    pres = SurgeryPresentation.from_rows(rows)
    L, classes = torsion_residues(pres, cap=CAP)
    c_ref = reference_parallelization(pres).c
    counts = Counter()
    for x, _ in classes:
        scaled = theta_g(pres, tuple(c + 2 * a for c, a in zip(c_ref, x))) * L
        assert scaled.denominator == 1
        counts[scaled.numerator % (8 * L)] += 1
    total = sum(k * cmath.exp(2j * cmath.pi * r / (8 * L)) for r, k in counts.items())
    return len(classes), total


def _law(rows):
    det, sig = _det_and_signature(rows)
    return abs(det), math.sqrt(abs(det)) * (-1j) ** ((sig + len(rows) + 1) % 4)


def _assert_law(rows):
    classes, got = _gauss_sum(rows)
    order, want = _law(rows)
    assert classes == order
    assert abs(got - want) < TOLERANCE, (rows, got, want)


LENS = [[[-p]] for p in (5, 7, 12, 97)]  # L(p, 1)
RANDOM = _random_family(2718, 120)
A_K = [_a(k, random.Random(31 + k)) for k in range(1, 8)]
BLOCKS = [
    _block_sum(E8, [[-5]]),
    _block_sum(A_K[2], RANDOM[0]),
    _block_sum(RANDOM[1], _negative(RANDOM[2])),
    _block_sum([[0, 1], [1, 0]], [[3, 1], [1, -2]]),
    _block_sum(LENS[0], LENS[3]),
]
FAMILY = [E8, *LENS, *RANDOM, *A_K, *BLOCKS]


def test_e8_by_hand():
    pres = SurgeryPresentation.from_rows(E8)
    assert reference_parallelization(pres).c == (0,) * 8
    assert theta_g(pres, (0,) * 8) == -42
    assert _gauss_sum(E8) == (1, pytest.approx(-1j))


@pytest.mark.parametrize("index", range(len(FAMILY)))
def test_gauss_sum_law(index):
    _assert_law(FAMILY[index])


@pytest.mark.parametrize("index", range(len(FAMILY)))
def test_gauss_sum_law_for_negative(index):
    """-B reverses the orientation: sig changes sign, det B by (-1)^n."""
    _assert_law(_negative(FAMILY[index]))


@pytest.mark.parametrize("a, b", list(itertools.combinations(range(5), 2)))
def test_block_sum_multiplies(a, b):
    """The Spin^c structures of B_1 + B_2 split over the blocks, and
    theta_g = theta_1 + theta_2 + 2 (the constant -2(n+1) counts n + 1
    once), so its sum is i times the product of their sums."""
    parts = [LENS[1], A_K[3], RANDOM[3], RANDOM[4], E8]
    _, left = _gauss_sum(parts[a])
    _, right = _gauss_sum(parts[b])
    _, whole = _gauss_sum(_block_sum(parts[a], parts[b]))
    assert abs(whole - 1j * left * right) < TOLERANCE


def test_family_covers_indefinite_and_odd():
    """The random family holds indefinite and definite B, odd and even ones,
    and non-cyclic torsion."""
    indefinite = sum(
        1 for rows in RANDOM if abs(_det_and_signature(rows)[1]) < len(rows)
    )
    assert indefinite >= 40 and len(RANDOM) - indefinite >= 20
    even = [all(row[i] % 2 == 0 for i, row in enumerate(rows)) for rows in RANDOM]
    assert 0 < sum(even) < len(RANDOM)
    assert any(
        len(homology_summary(SurgeryPresentation.from_rows(rows)).invariant_factors) > 1
        for rows in RANDOM
    )
