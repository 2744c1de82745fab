"""The fraction-free eliminations of `linalg` against independent oracles.

Seeded generators aim at the paths random matrices rarely reach: a hollow
(zero-diagonal) block left after some Bareiss updates, which needs the
e_k -> e_k + e_partner step, and zero rows of the Schur complement.
"""

import random
from fractions import Fraction
from operator import mul

from combings.linalg import IntMatrix, det, signature, solve_rational

from _oracles import eig_sign_counts, frac_rank, naive_det


def _matrix(rows, cols=None):
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, cols or 0, ())


def _low_rank(rng, r, c, bound=3):
    k = rng.randint(0, min(r, c))
    x = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(r)]
    y = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(k)]
    return [[sum(x[i][t] * y[t][j] for t in range(k)) for j in range(c)] for i in range(r)]


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
        assert tuple(signature(_matrix(rows))) == eig_sign_counts(rows), rows


def test_det_against_cofactor_expansion():
    rng = random.Random(5)
    for t in range(400):
        n = rng.randint(0, 6)
        if t % 2:
            rows = _low_rank(rng, n, n)
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(_matrix(rows)) == naive_det(rows), rows


def test_solve_rational_with_fraction_right_hand_sides():
    rng = random.Random(6)
    for t in range(400):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        rows = _low_rank(rng, r, c) if t % 2 else [
            [rng.randint(-5, 5) for _ in range(c)] for _ in range(r)
        ]
        if t % 4 < 2 and c:
            x0 = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(c)]
            b = [sum(map(mul, row, x0)) for row in rows]
        else:
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(r)]
        res = solve_rational(_matrix(rows, c), b)
        rank = frac_rank(rows)
        assert len(res.kernel) == c - rank
        assert frac_rank(list(res.kernel)) == len(res.kernel)
        for z in res.kernel:
            assert all(sum(map(mul, row, z)) == 0 for row in rows)
        solvable = frac_rank([row + [x] for row, x in zip(rows, b)]) == rank
        assert (res.solution is not None) == solvable
        if solvable:
            assert [sum(map(mul, row, res.solution)) for row in rows] == b
