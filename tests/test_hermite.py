"""The Hermite box against the echelon oracle, which works with exact
integers and no modulus.

The columns of H, read from the last coordinate to the first, are the
echelon basis of B Z^n: with the coordinate order reversed, column j of H
has its pivot h_jj at position n-1-j, and 0 <= h_ij < h_ii for j > i says
that the other entries of a pivot column lie in [0, pivot).  So column j
is row n-1-j of the echelon basis of the reversed rows of B, read back.
"""

import math
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
    box = data.box  # asked first, on a fresh entry
    columns = data.split.columns
    assert columns and len(columns) < b.rows
    bw = [b.matvec(w) for w in columns]
    core = [[sum(x * y for x, y in zip(wi, v)) for v in bw] for wi in columns]
    assert box == reference(core)


def test_inputs_divide_the_modulus_during_the_pass():
    """Boxes with several positions h_ii > 1 occur, as do unimodular B and
    n = 10."""
    boxes = [reference(rows) for rows in NONSINGULAR]
    counts = [sum(1 for col in box if col[-1] > 1) for box in boxes]
    assert sum(1 for c in counts if c >= 2) >= 10
    assert counts.count(0) >= 3 and max(map(len, NONSINGULAR)) == 10


def _zero_diagonal(seed):
    """Nonsingular B with a zero diagonal, n in 2..9: the pass starts with a
    step e_0 -> e_0 + e_partner."""
    out = []
    k = 0
    while len(out) < 60:
        rng = random.Random(f"{seed}:hollow:{k}")
        k += 1
        rows = random_symmetric(rng, rng.randint(2, 9), rng.randint(1, 5)).to_rows()
        for i, row in enumerate(rows):
            row[i] = 0
        if _det(rows):
            out.append(rows)
    return out


ZERO_DIAGONAL = _zero_diagonal(22)


def _late_partner(seed):
    """B = [[1, a^T], [a, a a^T + Z]] with Z of zero diagonal, n in 3..9: after
    the first pivot the Schur complement is Z, so the second step is
    e_1 -> e_1 + e_partner with row 0 already pivoted."""
    out = []
    k = 0
    while len(out) < 40:
        rng = random.Random(f"{seed}:late:{k}")
        k += 1
        n = rng.randint(3, 9)
        a = [rng.randint(-3, 3) for _ in range(n - 1)]
        z = random_symmetric(rng, n - 1, rng.randint(1, 4)).to_rows()
        rows = [[1] + a] + [[x] + [x * y + (i != j) * z[i][j] for j, y in enumerate(a)]
                            for i, x in enumerate(a)]
        if _det(rows) and any(a[1:]) and any(z[0][1:]):
            out.append(rows)
    return out


LATE_PARTNER = _late_partner(22)


def _dense(seed):
    """Dense random B with n in 10..16, whose cokernels are mostly cyclic or
    need two generators."""
    out = []
    k = 0
    while len(out) < 20:
        rng = random.Random(f"{seed}:dense:{k}")
        k += 1
        rows = random_symmetric(rng, rng.randint(10, 16), 4).to_rows()
        if _det(rows):
            out.append(rows)
    return out


DENSE = _dense(22)
FUNCTIONAL_CASES = NONSINGULAR + ZERO_DIAGONAL + LATE_PARTNER + DENSE


def _adjugate_columns(rows):
    return tuple(linalg._signature(IntMatrix.from_rows(rows), (), True)[2])


@pytest.mark.parametrize("index", range(len(FUNCTIONAL_CASES)))
def test_adjugate_columns_match_fraction_inverse(index):
    """The pass's back-substitution gives columns a = adj(B) c with c = B a /
    det B integral and primitive (c = P^{-T} e_j for the pass's unimodular
    congruence P): c against the Fraction inverse, through swaps and
    partner steps."""
    rows = FUNCTIONAL_CASES[index]
    inv, det = frac_inverse(rows)
    columns = _adjugate_columns(rows)
    assert len(columns) == min(len(rows), 2)
    for a in columns:
        c = [sum(x * y for x, y in zip(row, a)) for row in rows]
        assert all(x % det == 0 for x in c)
        c = [x // det for x in c]
        assert math.gcd(*c) == 1
        assert a == tuple(det * sum(x * y for x, y in zip(row, c)) for row in inv)


def _route(rows, monkeypatch):
    """(gcd(a, det B) for the first column a, the moduli `_hermite` ran at)."""
    moduli = []
    hermite = linalg._hermite

    def recording(b, det):
        moduli.append(det)
        return hermite(b, det)

    columns = _adjugate_columns(rows)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_hermite", recording)
        assert linalg._box(rows, _det(rows), columns) == reference(rows)
    return math.gcd(_det(rows), *columns[0]) if columns else 1, moduli


@pytest.mark.parametrize("index", range(len(FUNCTIONAL_CASES)))
def test_box_from_adjugate_columns_matches_echelon(index, monkeypatch):
    """The box from the pass's columns, from one, from none (the Hermite pass
    modulo |det B| alone) and from those of G, against the echelon oracle;
    from the pass's columns `_hermite` runs at most once, on the cofactor,
    at a modulus below |det B|."""
    rows = FUNCTIONAL_CASES[index]
    det, want = _det(rows), reference(rows)
    _, moduli = _route(rows, monkeypatch)
    assert all(abs(x) < abs(det) for x in moduli) and len(moduli) <= 1
    columns = _adjugate_columns(rows)
    assert linalg._box(rows, det, columns[:1]) == linalg._box(rows, det, ()) == want
    data = linalg.MatrixAnalysis(IntMatrix.from_rows(rows))
    data.form
    assert data.box == want  # read off G, with no further pass


def test_box_routes_all_occur(monkeypatch):
    """g = 1, g > 1 finished by the second column, g > 1 left to `_hermite`,
    and swaps and partner steps in the pass, at the first step and after a
    pivot, all occur among the cases."""
    routes = [_route(rows, monkeypatch) for rows in FUNCTIONAL_CASES]
    assert sum(1 for g, moduli in routes if g == 1) >= 40
    assert sum(1 for g, moduli in routes if g > 1 and not moduli) >= 25
    assert sum(1 for g, moduli in routes if moduli) >= 40
    # b_00 = 0 with another nonzero diagonal entry makes the first step a
    # swap, and an all-zero diagonal a partner step
    assert sum(1 for rows in FUNCTIONAL_CASES if not rows[0][0] and any(
        rows[i][i] for i in range(len(rows)))) >= 5
    assert all(not any(rows[i][i] for i in range(len(rows))) for rows in ZERO_DIAGONAL)
    assert all(rows[0][0] == 1 and not any(rows[i][i] - rows[0][i] ** 2 for i in range(len(rows)))
               for rows in LATE_PARTNER)


def test_empty_box_on_a_fresh_entry():
    """The empty B asks its pass for no columns and has the empty box."""
    empty = IntMatrix.from_rows([])
    assert _adjugate_columns([]) == ()
    assert linalg.MatrixAnalysis(empty).box == ()
