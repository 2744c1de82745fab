"""Independent oracles for the test suite.

Deliberately different algorithms from the library: cofactor determinants
and adjugates, plain Fraction-elimination ranks, F_2 ranks over bit-mask
rows, and eigenvalue sign counts read off the characteristic polynomial
(Descartes' rule of signs is exact for the all-real spectrum of a symmetric
matrix).  `solve_integer` alone reads the library's Smith form, by a route
the integer form G / L does not take.
"""

from __future__ import annotations

from fractions import Fraction

from combings.linalg import smith_normal_form


def naive_det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [list(r[:j]) + list(r[j + 1 :]) for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def unimodular_inverse(rows) -> list[list[int]]:
    """Inverse of a unimodular integer matrix: its cofactor adjugate times
    det = +-1."""
    n = len(rows)
    d = naive_det(rows)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")

    def cofactor(i, j):
        minor = [list(r[:j]) + list(r[j + 1 :]) for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * naive_det(minor)

    return [[d * cofactor(j, i) for j in range(n)] for i in range(n)]


def frac_rank(rows) -> int:
    """Rank over Q by forward elimination with Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def f2_rank(rows) -> int:
    """Rank over F_2: each row is packed into a bit mask and reduced against
    an XOR basis keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        mask = sum(1 << j for j, x in enumerate(row) if x % 2)
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                break
            mask ^= basis[top]
    return len(basis)


def charpoly(rows) -> list[Fraction]:
    """Coefficients [1, c_{n-1}, ..., c_0] of det(tI - A), by the
    Faddeev-LeVerrier trace recursion."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def _sign_variations(seq) -> int:
    nonzero = [x for x in seq if x != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def eig_sign_counts(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix."""
    coeffs = charpoly(rows)
    n = len(rows)
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    pos = _sign_variations(coeffs)
    neg = _sign_variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    return pos, neg, zero


def solve_integer(a, b):
    """One integer solution of A x = b, or None if none exists: with
    U A V = D, solve D x' = U b coordinatewise and return V x'."""
    snf = smith_normal_form(a)
    y = snf.U.matvec(tuple(b))
    diag = snf.diag
    xprime = [0] * a.cols
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        if d:
            if y[i] % d:
                return None
            xprime[i] = y[i] // d
        elif y[i]:
            return None
    return snf.V.matvec(tuple(xprime))
