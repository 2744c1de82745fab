"""The symmetric Bareiss pass of `linalg` against independent oracles.

Seeded generators aim at the paths random matrices rarely reach: a hollow
(zero-diagonal) block left after some Bareiss updates, which needs the
e_k -> e_k + e_partner step, and zero rows of the Schur complement.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from combings.linalg import (
    BareissPass,
    IntMatrix,
    MatrixAnalysis,
    _integer_form,
    _signature,
    analysis,
    signature,
)
from combings.verify import random_symmetric

from _oracles import (
    eig_sign_counts,
    frac_inverse,
    frac_rank,
    frac_solve,
    naive_det,
    one_step_pass,
    product,
)


def _hollow(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return m


def _blocks(rng, n):
    """A random symmetric block, a hollow block and a zero block, congruent by
    a symmetric permutation; the hollow block is reached after Bareiss updates."""
    a, h = rng.randint(0, n), rng.randint(0, n)
    m = [[0] * n for _ in range(n)]
    for i in range(a):
        for j in range(i, a):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    for i in range(a, min(a + h, n)):
        for j in range(i + 1, min(a + h, n)):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _singular_symmetric(rng, n):
    """X^T D X with X of k < n rows, so rank <= k."""
    k = rng.randint(0, n - 1)
    x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    d = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
    return [[sum(x[t][i] * d[t] * x[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


def test_signature_on_hollow_and_rank_deficient_matrices():
    rng = random.Random(4)
    for t in range(360):
        n = rng.randint(1, 8)
        rows = (_hollow, _blocks, _singular_symmetric)[t % 3](rng, n)
        assert tuple(signature(IntMatrix.from_rows(rows))) == eig_sign_counts(rows), rows


def _families(seed, count):
    """count symmetric B with n in 1..7, hollow, block, rank-deficient and
    random in turn, and the empty B."""
    rng = random.Random(seed)
    out = [[]]
    for t in range(count):
        n = rng.randint(1, 7)
        if t % 4 == 3:
            out.append(random_symmetric(rng, n, 4).to_rows())
        else:
            out.append((_hollow, _blocks, _singular_symmetric)[t % 4](rng, n))
    return out


FAMILIES = _families(5, 400)


def test_det_against_cofactor_expansion():
    """The pass's last pivot is det B, and 0 when a row is split off."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        assert _signature(b).det == naive_det(rows), rows


def test_form_through_the_pass_against_oracles():
    """`form`, solved through the pass on the columns of I, against the
    Fraction oracles: the signature of the eigenvalue signs, B G B = L B,
    kernel vectors of the pass that span ker B, and G / L = B^{-1} for
    nonsingular B."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        n = b.rows
        data = MatrixAnalysis(b)
        form, kernel, sig = data.form, data._pass.kernel, signature(b)
        assert sig == eig_sign_counts(rows), rows
        g = IntMatrix.from_rows(form.G)
        assert product(b, g, b) == IntMatrix(n, n, tuple(form.L * x for x in b.entries)), rows
        assert len(kernel) == sig.n_zero == n - frac_rank(rows)
        assert frac_rank(kernel) == len(kernel)
        assert all(not any(b.matvec(z)) for z in kernel), rows
        inv, _ = frac_inverse(rows)
        if inv is not None:
            assert [[Fraction(x, form.L) for x in row] for row in form.G] == inv


def test_form_solves_fraction_right_hand_sides():
    """x = G c / L solves B x = c for every c in the column space of B,
    Fractions included, and the torsion test agrees with the Fraction
    solve."""
    rng = random.Random(6)
    for t, rows in enumerate(FAMILIES):
        n = len(rows)
        if t % 2 and n:
            x0 = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
            c = [sum(map(mul, row, x0)) for row in rows]
        else:
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        data = analysis(IntMatrix.from_rows(rows))
        solution, kernel = frac_solve(rows, c)
        assert data.is_torsion(c) == (solution is not None)
        assert len(kernel) == len(data._pass.kernel)
        if solution is not None:
            x = [Fraction(sum(map(mul, row, c)), data.form.L) for row in data.form.G]
            assert [sum(map(mul, row, x)) for row in rows] == c


def _torsion_and_free(rng, rows):
    """An integer c in the column space of B (B a divided by the gcd of its
    entries, so not always in B Z^n) and a random c, torsion only by chance
    when B is singular."""
    n = len(rows)
    ba = [sum(row[j] * x for j, x in enumerate(rng.choices(range(-4, 5), k=n))) for row in rows]
    g = math.gcd(*ba) or 1
    return [x // g for x in ba], [rng.randint(-6, 6) for _ in range(n)]


def _bilinear(g, v, w):
    """v^T G w."""
    return sum(x * y * z for x, row in zip(v, g) for y, z in zip(row, w))


def test_pairing_solves_its_vectors_against_form_and_fraction_solve():
    """A fresh entry solves the vectors asked about alone through its pass
    (`MatrixAnalysis.pairing`): the pass gives the signature and det of the
    Fraction oracles and the torsion verdict of the Fraction solve, and the
    pairing v^T B^+ w of the form route and of the Fraction solve, for
    hollow, block, rank-deficient, random and empty B."""
    rng = random.Random(7)
    verdicts = set()
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        inertia = (eig_sign_counts(rows), frac_inverse(rows)[1])
        for v, w in itertools.permutations(_torsion_and_free(rng, rows)):
            fresh, warm = MatrixAnalysis(b), MatrixAnalysis(b)
            got = fresh.pairing(v, w)
            assert "form" not in fresh.__dict__
            assert (fresh.signature, fresh._pass.det) == inertia, rows
            form = warm.form
            torsion = []
            for vector in (v, w):
                solution = frac_solve(rows, vector)[0]
                torsion.append(solution is not None)
                verdicts.add((b.rows > 0 and fresh.signature.n_zero > 0, torsion[-1]))
                assert fresh.is_torsion(vector) == warm.is_torsion(vector) == torsion[-1], rows
            if all(torsion):
                want = sum(map(mul, v, frac_solve(rows, w)[0]), Fraction(0))
                assert got == want, rows
                assert Fraction(_bilinear(form.G, v, w), form.L) == warm.pairing(v, w) == want
            if torsion[0]:
                one = MatrixAnalysis(b)
                assert one.pairing(v, v) == Fraction(_bilinear(form.G, v, v), form.L)
                assert "form" not in one.__dict__
    assert verdicts == {(False, True), (True, True), (True, False)}


def _pinned_cases():
    """The seeded families and 24 random and 24 rank-deficient B with n in
    8..16, whose entries grow over many pivots."""
    rng = random.Random(8)
    out = list(FAMILIES)
    for _ in range(24):
        n = rng.randint(8, 16)
        out += [random_symmetric(rng, n, 5).to_rows(), _singular_symmetric(rng, n)]
    return out


def test_integer_form_is_pinned():
    """G, L and the kernel rows are reproducible, not just G / L: a digest of
    `form` and of the form on C = [v_1 ... v_m] of a fresh pass
    (`_integer_form`), m = 1, 2 and 3 (random vectors, torsion or not), each
    with the kernel rows D_k z^T C of the pass's kernel vectors D_k z, over
    singular and nonsingular B pins the scale, the sign and the order of the
    kernel rows.  The empty B has no vector to pair."""
    rng = random.Random(9)
    digest = hashlib.sha256()
    singular = 0
    for rows in _pinned_cases():
        b = IntMatrix.from_rows(rows)
        data = MatrixAnalysis(b)
        kernel = data._pass.kernel
        forms = [(*data.form, kernel)]  # C = I: the rows are the vectors
        singular += bool(kernel)
        if b.rows:
            for width in (1, 2, 3):
                vectors = [tuple(rng.randint(-6, 6) for _ in range(b.rows)) for _ in range(width)]
                p = MatrixAnalysis(b)._pass
                rows_c = tuple(tuple(sum(map(mul, z, v)) for v in vectors) for z in p.kernel)
                forms.append((*_integer_form(p, vectors), rows_c))
        for form in forms:
            digest.update(repr(form).encode())
    assert singular >= 200
    assert digest.hexdigest() == (
        "bb74a6914f47d2e3b41a4ae615ad3cf8bd6ef008905d3b5013a40c89bc750325"
    )


def _path(stages):
    """The moves of the two-step pass, read off the stages of the one-step
    pass on the same B.  From a pivot on k it takes pivots k and k+1 in one
    sweep ('two') when stage k+1 pivots with no move, since its pivot is
    D_{k+2}; else one step: 'fallback' when stage k+1 exists (D_{k+2} = 0),
    'last' when k ends the active block.  Each move is paired with what
    brought the pivot to k: 'plain', 'swap' or 'partner' ('split' for a row
    split off)."""
    path, idx = [], 0
    while idx < len(stages):
        k, kind = stages[idx]
        after = stages[idx + 1] if idx + 1 < len(stages) else None
        if kind == "split":
            move = "split"
        elif after == (k + 1, "plain"):
            move = "two"
            idx += 1
        else:
            move = "last" if after is None else "fallback"
        path.append((move, kind))
        idx += 1
    return path


def _chain(n):
    """The plumbing of a chain of n -2-framed unknots."""
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


# B picked to reach each path of the two-step pass, with the moves each
# takes: D_{k+2} = 0 after a pivot, and a swap right before two pivots; two
# pivots and then a row split off; a partner step right before two pivots;
# an active block of odd length; D_{k+2} = 0 after a swap, then a split
PICKED = [
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [("fallback", "plain"), ("two", "swap")]),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [("two", "plain"), ("split", "split")]),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [("two", "partner"), ("last", "plain")]),
    (
        [[0, 1, 2, 1], [1, 0, 1, 1], [2, 1, 0, 3], [1, 1, 3, 0]],
        [("two", "partner"), ("two", "plain")],
    ),
    ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [("two", "plain"), ("last", "plain")]),
    (
        [[1, 2, 3], [2, 4, 6], [3, 6, 1]],
        [("fallback", "plain"), ("fallback", "swap"), ("split", "split")],
    ),
]


def _two_step_cases():
    rng = random.Random(10)
    dense = [random_symmetric(rng, n, 5).to_rows() for n in range(8, 41, 2)]
    return FAMILIES + dense + [_chain(n) for n in range(1, 61)] + [rows for rows, _ in PICKED]


def test_two_step_pass_matches_the_one_step_pass():
    """Two pivots per sweep give the one-step pass's record field by field:
    the inertia, det B, every pivot row, the steps and the kernel vectors,
    on the seeded families, dense random B with n = 8..40, -2 chains up to
    n = 60 and the picked B; together they reach every move of the pass."""
    moves = set()
    for rows in _two_step_cases():
        want, stages = one_step_pass(rows)
        got = _signature(IntMatrix.from_rows(rows))
        for name, x, y in zip(BareissPass._fields, got, want):
            assert x == y, (name, rows)
        moves.update(_path(stages))
    assert moves >= {
        ("two", "plain"), ("two", "swap"), ("two", "partner"), ("fallback", "plain"),
        ("fallback", "swap"), ("fallback", "partner"), ("last", "plain"), ("split", "split"),
    }


@pytest.mark.parametrize("rows, moves", PICKED)
def test_picked_matrices_reach_their_moves(rows, moves):
    """Each picked B takes the moves it was picked for."""
    assert _path(one_step_pass(rows)[1]) == moves
