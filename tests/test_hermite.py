"""The Hermite box against the echelon oracle, which works with exact
integers and no modulus (`_oracles.reference`), and the adjugate columns
that cut it out against the Fraction inverse.
"""

import functools
import random

import pytest

from _oracles import f2_rank, frac_inverse, reference
from combings import linalg
from combings.linalg import IntMatrix
from combings.verify import random_symmetric, random_unimodular


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
    first, plus (4, 0, 0).  -A_3 spans the same lattice."""
    a3 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    want = ((4,), (2, 1), (1, 0, 1))
    assert reference(a3) == want
    for rows in (a3, [[-x for x in row] for row in a3]):
        assert linalg.MatrixAnalysis(IntMatrix.from_rows(rows)).box == want


def _pass_columns(rows):
    """det B and the columns adj(B) e_j, j = n-1 down to 0, each solved
    through the pass on B when read."""
    p = linalg._signature(IntMatrix.from_rows(rows))
    return p.det, map(p.solve, reversed(linalg._identity_lists(len(rows))))


@pytest.mark.parametrize("index", range(len(NONSINGULAR)))
def test_hermite_matches_echelon(index):
    rows = NONSINGULAR[index]
    assert linalg._box(len(rows), *_pass_columns(rows)) == reference(rows)


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
    return tuple(_pass_columns(rows)[1])


@pytest.mark.parametrize("index", range(len(FUNCTIONAL_CASES)))
def test_adjugate_columns_match_fraction_inverse(index):
    """Solving e_j through the pass gives the n columns a = adj(B) c with
    c = B a / det B = e_j, j = n-1 down to 0, against the Fraction inverse,
    through swaps and partner steps of the pass."""
    rows = FUNCTIONAL_CASES[index]
    inv, det = frac_inverse(rows)
    columns = _adjugate_columns(rows)
    assert len(columns) == len(rows)
    basis = []
    for a in columns:
        c = [sum(x * y for x, y in zip(row, a)) for row in rows]
        assert all(x % det == 0 for x in c)
        c = [x // det for x in c]
        assert a == tuple(det * sum(x * y for x, y in zip(row, c)) for row in inv)
        basis.append(c)
    assert basis == linalg._identity_lists(len(rows))[::-1]


def _columns_read(rows):
    """The box from the pass's columns, and how many of them `_box` read."""
    det, columns = _pass_columns(rows)
    read = []

    def counted():
        for a in columns:
            read.append(a)
            yield a

    return linalg._box(len(rows), det, counted()), len(read)


@pytest.mark.parametrize("index", range(len(FUNCTIONAL_CASES)))
def test_box_from_adjugate_columns_matches_echelon(index):
    """The box from the pass's columns, from the same columns in the
    opposite order, and as `MatrixAnalysis.box` after `form`, against the
    echelon oracle; `_box` reads at most n columns."""
    rows = FUNCTIONAL_CASES[index]
    det, want = _det(rows), reference(rows)
    box, read = _columns_read(rows)
    assert box == want and read <= len(rows)
    assert linalg._box(len(rows), det, _adjugate_columns(rows)[::-1]) == want
    data = linalg.MatrixAnalysis(IntMatrix.from_rows(rows))
    data.form
    assert data.box == want


def test_box_routes_all_occur():
    """B cut out by 0 (|det B| = 1), 1, 2 and 3 or more columns, and swaps
    and partner steps in the pass, at the first step and after a pivot, all
    occur among the cases."""
    counts = [_columns_read(rows)[1] for rows in FUNCTIONAL_CASES]
    assert counts.count(0) >= 10
    assert counts.count(1) >= 60
    assert counts.count(2) >= 45
    assert sum(1 for read in counts if read >= 3) >= 80
    # b_00 = 0 with another nonzero diagonal entry makes the first step a
    # swap, and an all-zero diagonal a partner step
    assert sum(1 for rows in FUNCTIONAL_CASES if not rows[0][0] and any(
        rows[i][i] for i in range(len(rows)))) >= 5
    assert all(not any(rows[i][i] for i in range(len(rows))) for rows in ZERO_DIAGONAL)
    assert all(rows[0][0] == 1 and not any(rows[i][i] - rows[0][i] ** 2 for i in range(len(rows)))
               for rows in LATE_PARTNER)


def _block_sum(rng, count, largest):
    """The block sum of `count` random blocks, each of size 2..largest."""
    blocks = [random_symmetric(rng, rng.randint(2, largest), 4) for _ in range(count)]
    return functools.reduce(IntMatrix.direct_sum, blocks).to_rows()


def _many_generators(seed):
    """B whose cokernels need many generators: P^T (d I_k + D) P with a
    repeated small d, block sums of two random blocks, diag(2..8), plain at
    n = 10, 20, 30 and congruent at n up to 12, and block sums of three and
    four random blocks, plain and (three blocks) congruent, with H_1 (x) F_2
    of dimension 3 or more.  On the last, later columns cut where H already
    has off-diagonal entries on several rows."""
    out = []
    for k in range(20):
        rng = random.Random(f"{seed}:repeated:{k}")
        d = rng.choice((2, 3, 4))
        rest = [rng.choice((1, -1)) * rng.choice((1, 2, 3, 6)) for _ in range(rng.randint(0, 4))]
        out.append(_congruent(rng, [d] * rng.randint(3, 8) + rest))
    k = 0
    while len(out) < 30:
        rng = random.Random(f"{seed}:blocks:{k}")
        k += 1
        rows = _block_sum(rng, 2, 8)
        if _det(rows):
            out.append(rows)
    for n in (10, 20, 30):
        rng = random.Random(f"{seed}:diagonal:{n}")
        out.append([[rng.randint(2, 8) * (i == j) for j in range(n)] for i in range(n)])
    for k in range(5):
        rng = random.Random(f"{seed}:diagonal:congruent:{k}")
        out.append(_congruent(rng, [rng.randint(2, 8) for _ in range(rng.randint(6, 12))]))
    k = 0
    while len(out) < 45:  # three blocks thrice, four blocks thrice, three congruent
        rng = random.Random(f"{seed}:blocks:many:{k}")
        k += 1
        rows = _block_sum(rng, 4 if 41 <= len(out) < 44 else 3, 6)
        if len(out) == 44:
            p = random_unimodular(rng, len(rows), steps=3 * len(rows))
            rows = (p.transpose() @ IntMatrix.from_rows(rows) @ p).to_rows()
        if _det(rows) and len(rows) - f2_rank(rows) >= 3:
            out.append(rows)
    return out


MANY_GENERATORS = _many_generators(23)


@pytest.mark.parametrize("index", range(len(MANY_GENERATORS)))
def test_many_generator_box_matches_echelon(index):
    """The box of a B whose cokernel needs many generators, on a fresh entry
    and from the pass's columns, against the echelon oracle: `_box` reads at
    most n columns."""
    rows = MANY_GENERATORS[index]
    want = reference(rows)
    box, read = _columns_read(rows)
    assert box == want and read <= len(rows)
    assert linalg.MatrixAnalysis(IntMatrix.from_rows(rows)).box == want


def test_many_generators_read_many_columns():
    """Every B of the family needs three or more columns, and many of them
    eight or more, up to n = 30."""
    counts = [_columns_read(rows)[1] for rows in MANY_GENERATORS]
    assert min(counts) >= 3 and max(counts) == 30
    assert sum(1 for read in counts if read >= 8) >= 15


def test_empty_box_on_a_fresh_entry():
    """The empty B asks its pass for no columns and has the empty box."""
    empty = IntMatrix.from_rows([])
    assert _adjugate_columns([]) == ()
    assert linalg.MatrixAnalysis(empty).box == ()
