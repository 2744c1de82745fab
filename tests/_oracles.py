"""Independent oracles for the test suite.

Deliberately different algorithms from the library: cofactor determinants
and adjugates, plain Fraction-elimination ranks, inverses and solves, F_2
ranks over bit-mask rows, an F_2 solve over lists of 0/1 (the library's runs
on bit masks), eigenvalue sign counts read off the characteristic
polynomial (Descartes' rule of signs is exact for the all-real spectrum of a
symmetric matrix), Spin^c class keys from a Fraction inverse, the
Ozsvath-Szabo recursion for the d-invariants of lens spaces, and echelon
lattice bases by 2 x 2 extended-gcd steps, and the Hermite box of B Z^n read
off such a basis, and the one-step symmetric Bareiss pass that the library's
two-step pass must reproduce.  `solve_integer` and the Smith
coordinates read the library's Smith form with its transforms
(`linalg.smith_normal_form`, which the package does not export), by a
route that no question on a symmetric B takes.  `torsion_pairs` is not an
oracle: it zips the library's torsion columns into (rep, r) pairs for the
tests that read the classes one at a time, and `transpose` and `product`
build the congruent matrices P^T B P and the products the tests compare.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul

from combings.linalg import (
    BareissPass, IntMatrix, SignatureTriple, _substitute, smith_normal_form,
)
from combings.surgery import DEFAULT_CAP, torsion_columns


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


def frac_inverse(rows) -> tuple[list[list[Fraction]] | None, int]:
    """(A^{-1}, det A) by Gauss-Jordan with Fractions on [A | I]; (None, 0)
    for a singular A."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None, 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m], int(det)


def frac_solve(rows, b):
    """(one solution or None, a kernel basis) of A x = b over Q, by
    Gauss-Jordan with Fractions on [A | b]; free variables are set to zero.
    b may hold Fractions.  For A with no rows every x solves, so the
    solution is the zero vector."""
    ncols = len(rows[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, b)]
    pivots: list[int] = []
    for col in range(ncols + 1):
        k = len(pivots)
        pivot = next((i for i in range(k, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [x / m[k][col] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * y for a, y in zip(m[i], m[k])]
        pivots.append(col)
    solution = None
    if not pivots or pivots[-1] != ncols:
        solution = [Fraction(0)] * ncols
        for k, col in enumerate(pivots):
            solution[col] = m[k][ncols]
    pivots = [col for col in pivots if col < ncols]
    kernel = []
    for free in (j for j in range(ncols) if j not in pivots):
        z = [Fraction(0)] * ncols
        z[free] = Fraction(1)
        for k, col in enumerate(pivots):
            z[col] = -m[k][free]
        kernel.append(z)
    return solution, kernel


def spin_c_key(rows):
    """c -> a key of the class of c modulo 2 B Z^n for a nonsingular
    symmetric B: B^{-1} c modulo 2, coordinatewise, since c - c' lies in
    2 B Z^n iff B^{-1} (c - c') lies in 2 Z^n."""
    inv, _ = frac_inverse(rows)
    return lambda c: tuple(sum(x * y for x, y in zip(row, c)) % 2 for row in inv)


def lens_d(p, q, i):
    """d(-L(p, q), i) by the Ozsvath-Szabo recursion (Absolutely graded
    Floer homologies and intersection forms for four-manifolds with
    boundary, Prop. 4.8): (pq - (2i + 1 - p - q)^2) / (4pq) - d(-L(q, r), j)
    with r = p mod q and j = i mod q, down to d(-L(1, 0), 0) = 0."""
    if p == 1:
        return Fraction(0)
    return Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q) - lens_d(q, p % q, i % q)


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


def solve_mod2(a, b):
    """One solution of A x = b over F_2 (free variables set to zero), or
    None, and the rank of A over F_2, the pivot count: Gauss-Jordan on lists
    of 0/1, with the pivot rule of `MatrixAnalysis._mod2`."""
    r, c = a.rows, a.cols
    aug = [[a.at(i, j) & 1 for j in range(c)] + [b[i] & 1] for i in range(r)]
    pivot_cols: list[int] = []
    prow = 0
    for col in range(c):
        pivot = next((i for i in range(prow, r) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        for i in range(r):
            if i != prow and aug[i][col]:
                aug[i] = [(x + y) & 1 for x, y in zip(aug[i], aug[prow])]
        pivot_cols.append(col)
        prow += 1
    if any(aug[i][c] for i in range(prow, r)):
        return None, prow
    x = [0] * c
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][c]
    return tuple(x), prow


def transpose(a):
    """A^T."""
    return IntMatrix(a.cols, a.rows, (x for j in range(a.cols) for x in a.entries[j::a.cols]))


def product(*factors):
    """The matrix product of the factors, left to right."""
    rows = factors[0].to_rows()
    for f in factors[1:]:
        rows = [[sum(map(mul, row, f.entries[j::f.cols])) for j in range(f.cols)] for row in rows]
    return IntMatrix(len(rows), factors[-1].cols, chain.from_iterable(rows))


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


def smith_coordinates(a):
    """v -> U v reduced by the invariant factors, for U A V = D: the Smith
    coordinates of the class of v in coker A, free ones kept.  Two vectors
    lie in one class iff their coordinates agree, and v lies in A Z^n iff
    they are all zero."""
    snf = smith_normal_form(a)
    return lambda v: tuple(y % d if d else y for y, d in zip(snf.U.matvec(tuple(v)), snf.diag))


def smith_generators(a):
    """U^{-1} e_i = A V e_i / d_i at each invariant factor d_i > 1, exact
    since A V = U^{-1} D: the generators of the torsion of coker A as a sum
    of the cyclic groups Z/d_i, with the d_i."""
    snf = smith_normal_form(a)
    return [
        (tuple(x // d for x in a.matvec(transpose(snf.V).row(i))), d)
        for i, d in enumerate(snf.diag)
        if d > 1
    ]


def smith_kernel(a):
    """The kernel columns of the Smith V: a basis of ker A cap Z^n."""
    snf = smith_normal_form(a)
    return [transpose(snf.V).row(j) for j in range(snf.rank, a.cols)]


def torsion_pairs(pres, cap=DEFAULT_CAP):
    """(L, ((rep, r), ...)): the torsion classes of `torsion_columns` zipped
    into pairs of a representative and the residue r of its linking form
    r / L, in the same order; the one class of an empty B has rep ()."""
    L, columns, residues = torsion_columns(pres, cap)
    return L, tuple((t[:-1], t[-1]) for t in zip(*columns, residues))


def _xgcd(a, b):
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0, by recursion."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def echelon(vectors):
    """The echelon (Hermite) basis of the lattice spanned by independent
    vectors: pivots positive and moving right, the other entries of a pivot
    column in [0, pivot).  Each step replaces two rows p, q by
    (x p + y q, (a/g) q - (b/g) p) for x a + y b = g, a determinant-1 move."""
    rows = [list(v) for v in vectors]
    t = 0
    for j in range(len(rows[0]) if rows else 0):
        if t == len(rows):
            break
        for i in range(t + 1, len(rows)):
            a, b = rows[t][j], rows[i][j]
            if b:
                g, x, y = _xgcd(a, b)
                rows[t], rows[i] = (
                    [x * p + y * q for p, q in zip(rows[t], rows[i])],
                    [(a // g) * q - (b // g) * p for p, q in zip(rows[t], rows[i])],
                )
        if rows[t][j] == 0:
            continue
        if rows[t][j] < 0:
            rows[t] = [-x for x in rows[t]]
        for i in range(t):
            f = rows[i][j] // rows[t][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[t])]
        t += 1
    return tuple(map(tuple, rows))


def reference(rows):
    """The columns of the Hermite form H of B Z^n, entries 0..j of column j,
    from the echelon basis.  Read from the last coordinate to the first,
    the columns of H are the echelon basis of B Z^n: with the coordinate
    order reversed, column j of H has its pivot h_jj at position n-1-j, and
    0 <= h_ij < h_ii for j > i says that the other entries of a pivot column
    lie in [0, pivot).  So column j is row n-1-j of the echelon basis of the
    reversed rows of B, read back."""
    n = len(rows)
    basis = echelon([row[::-1] for row in rows])
    return tuple(basis[n - 1 - j][::-1][: j + 1] for j in range(n))


def dense(box):
    """The sparse columns {k: h_kj} of a Hermite box (`linalg._finish`) as
    the tuples of entries 0..j of `reference`."""
    return tuple(tuple(col.get(k, 0) for k in range(j + 1)) for j, col in enumerate(box))


def one_step_pass(rows):
    """(the `BareissPass` of `linalg._signature`, its stages) by the one-step
    symmetric Bareiss loop: one pivot and one sweep of the rows below it per
    stage.  Each stage is (k, kind), kind 'split' for a zero row of the Schur
    complement split off, else the move that brought a nonzero pivot to k
    ('swap', 'partner', or 'plain' for none), so a test can tell which path
    the two-step pass takes on the same matrix."""
    n, m = len(rows), [list(row) for row in rows]

    def swap(i, j):
        steps.append((i, j, True))
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        for x in range(i + 1, j):
            m[i][x], m[x][j] = m[x][i], m[j][x]
        m[i][j] = m[j][i]

    n_plus = k = 0
    end, prev = n, 1
    steps, splits, stages = [], [], []
    while k < end:
        kind = "plain"
        if m[k][k] == 0:
            nz_diag = next((i for i in range(k + 1, end) if m[i][i]), None)
            partner = next((j for j in range(k + 1, end) if m[k][j]), None)
            if nz_diag is not None:
                kind = "swap"
                swap(k, nz_diag)
            elif partner is None:
                end -= 1
                swap(k, end)
                splits.append((k, end))
                stages.append((k, "split"))
                continue
            else:
                kind = "partner"
                pk, pp = m[k], m[partner]
                col = [m[i][partner] for i in range(k + 1, partner)] + pp[partner:]
                pk[k + 1 :] = map(add, pk[k + 1 :], col)
                pk[k] = 2 * pk[partner]
                for row in m[:k]:
                    row[k] += row[partner]
                steps.append((k, partner, False))
        stages.append((k, kind))
        pk, p = m[k], m[k][k]
        n_plus += (p > 0) == (prev > 0)
        for i in range(k + 1, end):
            mi, f = m[i], pk[i]
            mi[i:] = [(p * x - f * y) // prev for x, y in zip(mi[i:], pk[i:])]
        prev = p
        k += 1
    pivots = tuple(m[i][i:] for i in range(end))
    kernel = []
    for k, i in reversed(splits):
        z = [0] * n
        z[i] = pivots[k - 1][0] if k else 1
        kernel.append(_substitute(pivots[:k], steps, [0] * k, z))
    # the product of the |D_k| at which the rows were split off, read from
    # the stages rather than from the kernel vectors
    scale = math.prod(abs(pivots[k - 1][0]) if k else 1 for k, kind in stages if kind == "split")
    sig = SignatureTriple(n_plus, end - n_plus, n - end)
    record = BareissPass(sig, prev if end == n else 0, pivots, tuple(steps), tuple(kernel), scale)
    return record, stages
