"""The symmetric Bareiss pass of `linalg` against independent oracles.

Seeded generators aim at the paths random matrices rarely reach: a hollow
(zero-diagonal) block left after some Bareiss updates, which needs the
e_k -> e_k + e_partner step, and zero rows of the Schur complement.
"""

import random
from fractions import Fraction
from operator import mul

from combings.linalg import IntMatrix, _signature, analysis, signature
from combings.verify import random_symmetric

from _oracles import eig_sign_counts, frac_inverse, frac_rank, frac_solve, naive_det


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


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_det_against_cofactor_expansion():
    """The pass's last pivot is det B, also with an empty border."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        assert _signature(b)[1] == _signature(b, _identity(b.rows))[1] == naive_det(rows), rows


def test_bordered_pass_against_oracles():
    """With the border I: the signature of the empty border, B G B = L B,
    kernel rows that span ker B, and G / L = B^{-1} for nonsingular B."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        n = b.rows
        sig, _, form = _signature(b, _identity(n))
        assert sig == _signature(b)[0] == signature(b)
        g = IntMatrix.from_rows(form.G)
        assert b @ g @ b == IntMatrix(n, n, tuple(form.L * x for x in b.entries)), rows
        assert len(form.kernel) == sig.n_zero == n - frac_rank(rows)
        assert frac_rank(form.kernel) == len(form.kernel)
        assert all(not any(b.matvec(z)) for z in form.kernel), rows
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
        assert len(kernel) == len(data.form.kernel)
        if solution is not None:
            x = [Fraction(sum(map(mul, row, c)), data.form.L) for row in data.form.G]
            assert [sum(map(mul, row, x)) for row in rows] == c
