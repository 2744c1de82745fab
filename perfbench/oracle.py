"""Exact reference arithmetic for checking benchmark outputs.

Nothing here imports `combings`: every expected value the benchmark
compares against is computed by this module or known by construction, so
a wrong result from the library cannot also make its own check pass.
Integer work is fraction-free (Bareiss); Fractions appear only in
back-substitution.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rows = list[list[int]]


def det(b: Rows) -> int:
    """Determinant by Bareiss elimination with row pivoting."""
    n = len(b)
    m = [list(r) for r in b]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        mk, pk = m[k], m[k][k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - f * mk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def leading_minors(b: Rows) -> list[int] | None:
    """All leading principal minors, or None if one before the last is 0.

    Bareiss elimination without pivoting leaves the k-th leading minor in
    the k-th pivot position.
    """
    n = len(b)
    m = [list(r) for r in b]
    minors, prev = [], 1
    for k in range(n):
        pk = m[k][k]
        minors.append(pk)
        if k == n - 1:
            break
        if pk == 0:
            return None
        mk = m[k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - f * mk[j]) // prev
        prev = pk
    return minors


def congruence(b: Rows, i: int, j: int, s: int) -> Rows:
    """E^T B E for E = I + s e_j e_i^T: row i += s row j, then col i += s col j."""
    m = [list(r) for r in b]
    m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    for row in m:
        row[i] += s * row[j]
    return m


def signature(b: Rows, rng) -> int:
    """n_+ - n_- of a nonsingular symmetric matrix (Jacobi's rule).

    The sign changes in 1, D_1, ..., D_n of the leading minors count the
    negative eigenvalues.  A zero minor is avoided by random unimodular
    congruences, one into every row, which keep the inertia (Sylvester's law).
    """
    n = len(b)
    for _ in range(50):
        minors = leading_minors(b)
        if minors is not None:
            if minors and minors[-1] == 0:
                raise ValueError("signature oracle needs a nonsingular matrix")
            negatives = sum(
                1 for a, c in zip([1] + minors, minors) if (a > 0) != (c > 0)
            )
            return n - 2 * negatives
        for i in range(n):
            j = rng.choice([k for k in range(n) if k != i])
            b = congruence(b, i, j, rng.choice((1, -1)))
    raise RuntimeError("no congruence with nonzero leading minors found")


def solve(b: Rows, rhs: list[int]) -> list[Fraction]:
    """The solution of B x = rhs for nonsingular B, exactly."""
    n = len(b)
    m = [list(r) + [y] for r, y in zip(b, rhs)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                raise ValueError("solve oracle needs a nonsingular matrix")
            m[k], m[p] = m[p], m[k]
        mk, pk = m[k], m[k][k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n + 1):
                mi[j] = (mi[j] * pk - f * mk[j]) // prev
        prev = pk
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = Fraction(m[k][n]) - sum(m[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / m[k][k]
    return x


def in_column_lattice(b: Rows, v: list[int]) -> bool:
    """Is v in B Z^n, for nonsingular B?"""
    return all(x.denominator == 1 for x in solve(b, v))


def adjugate(b: Rows) -> tuple[Rows, int]:
    """(adj B, det B) for nonsingular B, so that B adj B = det B * I."""
    n = len(b)
    d = det(b)
    cols = []
    for k in range(n):
        x = solve(b, [1 if i == k else 0 for i in range(n)])
        cols.append([int(xi * d) for xi in x])
    return [[cols[j][i] for j in range(n)] for i in range(n)], d


def _eliminate_mod2(b: Rows, rhs: list[int] | None):
    """Row-reduce B (and rhs) over F_2; rows are bit masks."""
    n_cols = len(b[0]) if b else 0
    rows = []
    for i, r in enumerate(b):
        mask = sum(1 << j for j, x in enumerate(r) if x & 1)
        if rhs is not None and rhs[i] & 1:
            mask |= 1 << n_cols
        rows.append(mask)
    pivots = []
    rank = 0
    for col in range(n_cols):
        bit = 1 << col
        p = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows, pivots, n_cols


def rank_mod2(b: Rows) -> int:
    return len(_eliminate_mod2(b, None)[1])


def solve_mod2(b: Rows, rhs: list[int]) -> list[int] | None:
    """One solution of B u = rhs over F_2, or None."""
    rows, pivots, n_cols = _eliminate_mod2(b, rhs)
    top = 1 << n_cols
    if any(r & top for r in rows[len(pivots) :]):
        return None
    u = [0] * n_cols
    for k, col in enumerate(pivots):
        u[col] = 1 if rows[k] & top else 0
    return u


def matvec(b: Rows, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in b]


def quad(b: Rows, u: list[int]) -> int:
    return sum(x * y for x, y in zip(u, matvec(b, u)))


def reference_theta(b: Rows, rng) -> tuple[list[int], Fraction]:
    """A characteristic c = B u with zero Euler class, and theta_g(B, c).

    u solves B u = diag(B) over F_2, so c is characteristic, and
    c^T B^{-1} c = u^T B u needs no inverse.
    """
    n = len(b)
    u = solve_mod2(b, [b[i][i] for i in range(n)])
    if u is None:  # impossible for a symmetric matrix
        raise ValueError("diagonal is not in the F_2 column space")
    return matvec(b, u), Fraction(quad(b, u) - 2 * (n + 1) - 3 * signature(b, rng))


def diagonal_invariant_factors(diag: list[int]) -> list[int]:
    """Invariant factors (> 1) of a diagonal matrix with nonzero entries."""
    a = sorted(abs(x) for x in diag)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = math.gcd(a[i], a[j])
            a[i], a[j] = g, a[i] * a[j] // g
    return [x for x in a if x > 1]


def discriminant_group(b: Rows) -> tuple[list[list[int]], Rows, int]:
    """One representative per class of Z^n / B Z^n for nonsingular B.

    Breadth-first search from 0 along the meridians e_i; a class is keyed
    by adj(B) v mod |det B|, which is injective on the quotient.  Returns
    (representatives, adj B, det B).
    """
    adj, d = adjugate(b)
    n, m = len(b), abs(d)
    adj_cols = [[adj[i][k] for i in range(n)] for k in range(n)]
    start = (0,) * n
    seen = {start}
    reps = [[0] * n]
    keys = [start]
    head = 0
    while head < len(reps):
        v, key = reps[head], keys[head]
        head += 1
        for k in range(n):
            nk = tuple((x + y) % m for x, y in zip(key, adj_cols[k]))
            if nk not in seen:
                seen.add(nk)
                w = list(v)
                w[k] += 1
                reps.append(w)
                keys.append(nk)
    return reps, adj, d


def class_key(adj: Rows, d: int, v: list[int]) -> tuple[int, ...]:
    m = abs(d)
    return tuple(x % m for x in matvec(adj, v))


def self_linking(adj: Rows, d: int, v: list[int]) -> Fraction:
    """lk(v, v) = -v^T B^{-1} v mod 1."""
    return Fraction(-quad(adj, v), d) % 1


def max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)
