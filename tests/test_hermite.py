"""The Hermite box against the echelon oracle, which works with exact
integers and no modulus.

The columns of H, read from the last coordinate to the first, are the
echelon basis of B Z^n: with the coordinate order reversed, column j of H
has its pivot h_jj at position n-1-j, and 0 <= h_ij < h_ii for j > i says
that the other entries of a pivot column lie in [0, pivot).  So column j
is row n-1-j of the echelon basis of the reversed rows of B, read back.
"""

import random

import pytest

from _oracles import echelon, frac_inverse
from combings import linalg
from combings.linalg import IntMatrix
from combings.verify import random_symmetric, random_unimodular


def reference(rows):
    """The columns of H, entries 0..j of column j, from the echelon basis."""
    n = len(rows)
    basis = echelon([row[::-1] for row in rows])
    return tuple(basis[n - 1 - j][::-1][: j + 1] for j in range(n))


def _det(rows):
    return frac_inverse(rows)[1]


def _congruent(rng, d):
    """P^T D P for a random unimodular P."""
    n = len(d)
    p = random_unimodular(rng, n, steps=3 * n)
    diag = IntMatrix.from_rows([[x * (i == j) for j in range(n)] for i, x in enumerate(d)])
    return (p.transpose() @ diag @ p).to_rows()


def _nonsingular(seed):
    """Random B with n <= 10 and entries <= 9, P^T D P with d_i in
    +-{1, 2, 3, 4, 6, 12} (several h_ii > 1, so the modulus is divided
    during the pass), unimodular B, [[-1]] and [[-12]]."""
    out = []
    k = 0
    while len(out) < 60:
        rng = random.Random(f"{seed}:random:{k}")
        k += 1
        rows = random_symmetric(rng, rng.randint(1, 10), rng.randint(1, 9)).to_rows()
        if _det(rows):
            out.append(rows)
    for k in range(60):
        rng = random.Random(f"{seed}:diagonal:{k}")
        n = rng.randint(1, 8)
        out.append(_congruent(rng, [rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 12))
                                    for _ in range(n)]))
    for n in (2, 5, 9):
        rng = random.Random(f"{seed}:unimodular:{n}")
        out.append(_congruent(rng, [rng.choice((1, -1)) for _ in range(n)]))
    return out + [[[-1]], [[-12]]]


NONSINGULAR = _nonsingular(18)


def _singular(seed):
    """P^T (D + 0_k) P with d_i in +-{1, 2, 3, 4, 6, 12} and k >= 1."""
    out = []
    for k in range(30):
        rng = random.Random(f"{seed}:singular:{k}")
        n = rng.randint(2, 8)
        zeros = rng.randint(1, n - 1)
        d = [rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(n - zeros)]
        out.append(_congruent(rng, d + [0] * zeros))
    return out


SINGULAR = _singular(18)


def test_hand_worked_a3():
    """B = A_3 has coker Z/4.  Lattice vectors with x_2 = 0 have
    x_1 = a - 3c for any a, c, so h_22 = h_11 = 1 and h_00 = 4; column 1 is
    the row (2, 1, 0), and column 2 is the row (1, 2, 1) minus twice the
    first, plus (4, 0, 0)."""
    a3 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    want = ((4,), (2, 1), (1, 0, 1))
    assert reference(a3) == want
    assert linalg._hermite(a3, 4) == linalg._hermite(a3, -4) == want


@pytest.mark.parametrize("index", range(len(NONSINGULAR)))
def test_hermite_matches_echelon(index):
    rows = NONSINGULAR[index]
    copy = [list(row) for row in rows]
    assert linalg._hermite(rows, _det(rows)) == reference(rows)
    assert rows == copy  # the argument is left unchanged


@pytest.mark.parametrize("index", range(len(SINGULAR)))
def test_singular_box_matches_echelon_of_core(index):
    """A singular B is answered by the box of its nonsingular core
    B' = W_1^T B W_1."""
    b = IntMatrix.from_rows(SINGULAR[index])
    data = linalg.MatrixAnalysis(b)
    columns = data.split.columns
    assert columns and len(columns) < b.rows
    bw = [b.matvec(w) for w in columns]
    core = [[sum(x * y for x, y in zip(wi, v)) for v in bw] for wi in columns]
    assert data.box == reference(core)


def test_inputs_divide_the_modulus_during_the_pass():
    """Boxes with several positions h_ii > 1 occur, as do unimodular B and
    n = 10."""
    boxes = [reference(rows) for rows in NONSINGULAR]
    counts = [sum(1 for col in box if col[-1] > 1) for box in boxes]
    assert sum(1 for c in counts if c >= 2) >= 10
    assert counts.count(0) >= 3 and max(map(len, NONSINGULAR)) == 10
