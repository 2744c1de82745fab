"""Exact linear algebra over the integers.

Small dense matrices only.  Every elimination runs on Python's
arbitrary-precision integers, with no Fraction and no floating point, so
Smith and Hermite forms, kernels, signatures and the integer form G / L are
exact and reproducible.  There is one fraction-free elimination, the
symmetric Bareiss pass `_signature`, run once per matrix, singular or not,
and on no other matrix: it gives the signature, det B, the pivot rows and
the kernel of B, and every other quantity is a triangular solve through
those pivot rows (`_substitute`): the adjugate columns of the nonsingular
core B' that cut the Hermite box, adj B itself for a nonsingular B, the
integer form G / L of B on the columns C = I (`form`) or on the k
generators of the torsion form, and the one vector of a fresh entry's first
vector question (`MatrixAnalysis._solution`); the order of the torsion
subgroup is |D_r| / det(A)^2, off the pass and the kernel split
(`MatrixAnalysis.torsion_order`).  The pass takes two pivots per sweep of the
rows below them (Bareiss's two-step form) wherever the second pivot is
nonzero, with one exact division by D_k^2 per entry, and one pivot where it
is zero or the active block ends; the pivot rows are the same either way.
The others are the Smith pass `_diagonalize`, the gcd chains of `_box` that
cut the Hermite box, one list of sparse columns, out of adjugate columns
until they reach B Z^n and finished (`_finish`) over only the rows each
column holds and the positions with h_ii > 1, the Euclid steps `_euclid` of
`_split` and `_echelon`, and the F_2 elimination `MatrixAnalysis._mod2` on
bit-mask rows.  Every class question reads one box, the Hermite box of the
nonsingular core of B, kept as those sparse columns; every vector question,
a pairing, a self-pairing c^T G_0 c or membership in B Z^n, reads one
solution G_0 w (`MatrixAnalysis._solution`): on a warm entry G w off the
columns of G, each packed into one integer (Kronecker substitution,
`MatrixAnalysis._product`), n products of wide integers and no division.
The one torsion test is `MatrixAnalysis.is_torsion`, on the pass's kernel
vectors.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import add, lshift, mod, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidInputError, integers, sequence
from .record import Record

Vector = tuple[int, ...]


class IntMatrix(Record):
    """Immutable integer matrix with entries stored row-major.

    It is the key of the `analysis` memo, so its hash is taken once, when it
    is built."""

    __slots__ = ("rows", "cols", "entries", "_hash")
    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]) -> None:
        entries = sequence(entries, "matrix entries")
        if not integers((rows, cols)) or rows < 0 or cols < 0:
            raise InvalidInputError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise InvalidInputError("entry count must equal rows * cols")
        if not integers(entries):
            raise InvalidInputError("matrix entries must be integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((rows, cols, entries)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]]) -> "IntMatrix":
        rows = [sequence(r, "matrix row") for r in sequence(data, "matrix rows")]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise InvalidInputError("rows must all have the same length")
        return cls(nrows, ncols, itertools.chain.from_iterable(rows))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_symmetric(self) -> bool:
        rows = [self.row(i) for i in range(self.rows)]
        return self.rows == self.cols and list(zip(*rows)) == rows

    def diagonal(self) -> Vector:
        """The entries (i, i), one slice of the row-major entries."""
        return self.entries[: min(self.rows, self.cols) * self.cols : self.cols + 1]

    def matvec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise InvalidInputError("vector length must equal column count")
        return tuple(sum(map(mul, self.row(i), v)) for i in range(self.rows))

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        top = [self.row(i) + (0,) * other.cols for i in range(self.rows)]
        bottom = [(0,) * self.cols + other.row(i) for i in range(other.rows)]
        return IntMatrix.from_rows(top + bottom)


class SnfResult(NamedTuple):
    """Smith normal form U * A * V = D with U, V unimodular.

    The diagonal of D is nonnegative and each entry divides the next.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diag(self) -> Vector:
        return self.D.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def _identity_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _diagonalize(m: list[list[int]], r: int | None = None, c: int | None = None) -> None:
    """Bring the r x c matrix A to Smith normal form in place by unimodular
    row and column operations.  With r and c given, m is the bordered matrix
    [[A, I_r], [I_c, 0]]: the row operations, on the first r rows, carry U
    in its right block, and the column operations, on the first c columns,
    carry V in its bottom block, so U A V = D.  Without them, m is A alone.

    The pivot is always the smallest nonzero entry of A in absolute value,
    ties broken by lowest row then column, so the operations are
    reproducible.
    """
    if r is None or c is None:
        r, c = len(m), len(m[0]) if m else 0
    t = 0
    while t < min(r, c):
        entries = ((abs(m[i][j]), i, j) for i in range(t, r) for j in range(t, c) if m[i][j])
        best = min(entries, default=None)
        if best is None:
            break
        _, pi, pj = best
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            m[t] = [-y for y in m[t]]
        p = m[t][t]
        for i in range(t + 1, r):
            if q := m[i][t] // p:
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
        for j in range(t + 1, c):
            if q := m[t][j] // p:
                for row in m:
                    row[j] -= q * row[t]
        if any(m[i][t] for i in range(t + 1, r)) or any(m[t][j] for j in range(t + 1, c)):
            continue  # a remainder smaller than the pivot appeared; re-pivot
        rest = range(t + 1, c)
        bad = next((i for i in range(t + 1, r) if any(m[i][j] % p for j in rest)), None)
        if bad is None:
            t += 1
        else:  # pull the non-multiple into row t
            m[t] = [a + b for a, b in zip(m[t], m[bad])]


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """U A V = D by one pass of `_diagonalize` on [[A, I], [I, 0]], whose
    pivoting makes U and V reproducible.  Built afresh on each call, never
    kept in a memo: its transforms grow with the pivoting (thousands of bits
    at n = 40), and no question on a symmetric B reads them.  It stays
    public as the tests' reference and for the benchmark's warm-up."""
    r, c = a.rows, a.cols
    m = [row + e for row, e in zip(a.to_rows(), _identity_lists(r))]
    m += [e + [0] * r for e in _identity_lists(c)]
    _diagonalize(m, r, c)
    return SnfResult(
        U=IntMatrix(r, r, tuple(x for row in m[:r] for x in row[c:])),
        D=IntMatrix(r, c, tuple(x for row in m[:r] for x in row[:c])),
        V=IntMatrix(c, c, tuple(x for row in m[r:] for x in row[:c])),
    )


def _finish(columns: list[dict[int, int]]) -> tuple[dict[int, int], ...]:
    """The Hermite form of the lattice of an upper triangular basis with
    positive diagonal, column j given by its nonzero entries {k: h_kj}, k <=
    j, reduced in place and returned as those sparse columns: column j is
    reduced by the finished columns i = j-1, ..., 0.  A finished column keeps
    only its nonzero entries, on its own row and the rows k with h_kk > 1, so
    reducing by it adds no other row: column j visits only the rows it holds
    and the finished positions with h_ii > 1, O(n |T|) in all, and each step
    touches only the entries of the finished column."""
    t = []  # the finished positions with h_ii > 1
    for j, col in enumerate(columns):
        for i in sorted({*t, *col} - {j}, reverse=True):
            if q := col.get(i, 0) // columns[i][i]:
                for k, h in columns[i].items():
                    col[k] = col.get(k, 0) - q * h
        columns[j] = col = {k: x for k, x in col.items() if x}
        if col[j] > 1:
            t.append(j)
    return tuple(columns)


def _box(n: int, det: int, adjugate: Iterable[Sequence[int]]) -> tuple[dict[int, int], ...]:
    """The columns of the Hermite form H of B Z^n for an n x n nonsingular
    symmetric B: H Z^n = B Z^n, H is upper triangular with h_ii > 0, and
    0 <= h_ij < h_ii for j > i; such an H is unique.  Column j is returned
    as its nonzero entries {k: h_kj} (`_finish`).  H is cut out of Z^n by
    det B and columns a = adj(B) c of the adjugate, c integral (after
    Micciancio-Warinschi 2001).

    a^T B y = det(B) c^T y, so each a cuts a lattice holding B Z^n out of the
    current one, H Z^n of index r over B Z^n (at first H = I, r = |det B|):
    as r H Z^n lies in B Z^n, f = a^T H / (|det B| / r) is integral, and
    B Z^n lies in H K Z^n for K the Hermite form of {y : f . y = 0 mod r}.
    K has index r / g over Z^n, g = gcd(f, r), and is read off the gcd
    chain g_j = gcd(r, f_0, ..., f_j) (g_{-1} = r) in O(n |T|) over the
    positions T with k_ii > 1: k_jj = d_j = g_{j-1} / g_j, and column j
    solves f_0 y_0 + ... + f_{j-1} y_{j-1} = -f_j d_j mod r one digit y_i in
    [0, k_ii) per position of T, from the last, with f_i y_i = t mod g_{i-1}.
    H K replaces H in place from the last column down, since its column j,
    d_j H_j + sum y_i H_i, reads only the columns i <= j of H; H is kept
    as sparse columns {k: h_kj}.  Columns are read while r > 1.  y lies in
    B Z^n iff c^T B^{-1} y is an integer for every c of a basis of Z^n, so
    columns whose c form a basis reach r = 1 after at most n; most B need
    one or two.
    """
    r, adjugate = abs(det), iter(adjugate)
    columns = [{j: 1} for j in range(n)]
    while r > 1:
        if (a := next(adjugate, None)) is None:
            raise RuntimeError(f"the columns ran out with B Z^n of index {r} in the lattice")
        scale = abs(det) // r
        chain, steps = [], []  # chain: (i, f_i, 1 / (f_i / g_i) mod d_i, d_i, g_i) over T
        for j, col in enumerate(columns):
            fj = sum(a[k] * x for k, x in col.items()) // scale
            g = math.gcd(r, fj)
            d, digits = r // g, []
            t = -fj * d
            for i, fi, inverse, di, gi in reversed(chain):
                if y := t // gi * inverse % di:
                    digits.append((i, y))
                    t -= fi * y
            if d > 1:
                chain.append((j, fj, pow(fj // g, -1, d), d, g))
            steps.append((d, digits))
            r = g
        for col, (d, digits) in zip(reversed(columns), reversed(steps)):
            if d > 1:
                for k in col:
                    col[k] *= d
            for i, y in digits:
                for k, x in columns[i].items():
                    col[k] = col.get(k, 0) + y * x
    return _finish(columns)


class SignatureTriple(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int


def signature(s: IntMatrix) -> SignatureTriple:
    """Inertia of a symmetric integer matrix by symmetric Bareiss elimination.

    Exact on integers (Sylvester's law of inertia): the k-th square of the
    LDL^T form has the sign of D_k / D_{k-1}, with D_k the determinant of the
    first k pivots.  Kept in the per-matrix memo of `analysis`.  This is the
    one entry point that takes a bare matrix, so it checks symmetry; every
    other reader passes the matrix of a `SurgeryPresentation`, checked when
    that was built.
    """
    if not s.is_symmetric():
        raise InvalidInputError("signature needs a symmetric matrix")
    return analysis(s).signature


class BareissPass(NamedTuple):
    """The record of one symmetric Bareiss pass on s (`_signature`): the
    inertia, det s (0 for a singular s), the r pivot rows of P^T s P from
    their diagonal on (`rows[k][0]` is the pivot D_{k+1}, the leading
    (k+1) x (k+1) minor), the congruence steps (k, i, is_swap) whose product
    is P, one vector D_k z of ker s per row split off after k pivots, and
    the product of the |D_k| of those rows (1 for a nonsingular s), which
    `MatrixAnalysis.torsion_order` reads."""

    signature: SignatureTriple
    det: int
    rows: tuple[list[int], ...]
    steps: tuple[tuple[int, int, bool], ...]
    kernel: tuple[Vector, ...]
    kernel_scale: int

    @property
    def minor(self) -> int:
        """D_r, the last pivot: det S for the r x r pivot block S of P^T s P
        (det s for a nonsingular s, 1 for r = 0)."""
        return self.rows[-1][0] if self.rows else 1

    def solve(self, b: Sequence[int]) -> Vector:
        """D_r G_0 b for G_0 = P diag(S^{-1}, 0) P^T over the r x r pivot
        block S of P^T s P, D_r = det S, from w = P^T b: adj(s) b for a
        nonsingular s.  s G_0 s = s, the Schur complement of S being zero, so
        G_0 b solves s x = b for every b in the column space of s."""
        w = list(b)
        for k, i, is_swap in self.steps:
            if is_swap:
                w[k], w[i] = w[i], w[k]
            else:
                w[k] += w[i]
        return _substitute(self.rows, self.steps, w, [0] * len(w))


def _substitute(rows: Sequence[list[int]], steps: Sequence, w: list[int], z: list[int]) -> Vector:
    """P z, for U the k pivot rows given: forward elimination of w, in the
    final basis, then back-substitution U z[:k] = D_k w[:k] - U[:, k:] z[k:]
    with the entries of z from k on as given, then the steps undone in
    reverse.  The stage of pivot row t sets w_i = (D_{t+1} w_i - u_ti w_t) /
    D_t for i > t, exactly (D_0 = 1), so the stages before the first nonzero
    w_j only scale w to D_j w: elimination starts at stage j.  Each division
    of the back-substitution is exact when the solution is integral."""
    k = len(rows)
    j = next((t for t in range(k) if w[t]), k)
    before = rows[j - 1][0] if j else 1
    w[j:k] = [before * x for x in w[j:k]]
    for t in range(j, k - 1):
        row, wt, p = rows[t], w[t], rows[t][0]
        w[t + 1 : k] = [(p * x - f * wt) // before for x, f in zip(w[t + 1 : k], row[1:])]
        before = p
    scale = rows[-1][0] if rows else 1
    for t in reversed(range(k)):
        z[t] = (scale * w[t] - sum(map(mul, rows[t][1:], z[t + 1 :]))) // rows[t][0]
    for t, i, is_swap in reversed(steps):
        if is_swap:
            z[t], z[i] = z[i], z[t]
        else:
            z[i] += z[t]
    return tuple(z)


def _signature(s: IntMatrix) -> BareissPass:
    """One symmetric Bareiss pass on s (Bareiss 1968; Sylvester's law of
    inertia), as a `BareissPass`.

    Every step is a congruence by a matrix P of determinant +-1 (a symmetric
    swap, or e_k -> e_k + e_partner), so the k-th pivot D_k is the leading
    k x k minor of P^T s P: the k-th square has the sign of D_k / D_{k-1},
    and the last pivot is det s when no zero row of the Schur complement is
    split off, and det s = 0 when one is.  A row split off swaps to the end
    of the active block, a step of P too.

    Each entry outside the pivots is D_k times the Schur complement of the
    first k pivots.  One step from stage k sets x <- (a x - u y) / D_k for
    each entry x of a row i > k, with a = D_{k+1} = m_kk, y the entry of row
    k in its column and u = m_ki.  Where D_{k+2} = (a d - b^2) / D_k is
    nonzero (b = m_k,k+1, d = m_k+1,k+1 at stage k) and k+1 is in the
    active block, the pass takes pivots k and k+1 in one sweep of the rows
    i > k+1 (Bareiss's two-step form, from Sylvester's identity): x <-
    (D_{k+2} D_k x + (b v - d u) y + (b u - a v) z) / D_k^2, with z the entry
    of row k+1 and v = m_k+1,i, which is the two steps composed, so it is
    exact and leaves every entry as the one-step pass leaves it.  Row k+1
    then takes its own one step, to be stored as a pivot row, and both
    pivot signs count.  Where D_{k+2} = 0 the pass takes one step and meets
    the zero pivot at k+1 as usual.  The two-step sweep makes half the
    sweeps over the rows and half the divisions, and three products per
    entry where two steps make four.

    So the pivot rows, in the final basis, are the upper triangular system
    U y = w that forward elimination makes of P^T s P y = P^T b
    (`BareissPass.solve`); a step e_k -> e_k + e_partner also adds
    column partner into column k of the rows already pivoted.  A row at
    position i split off after k pivots is zero in the Schur complement, so
    z = e_i - S_k^{-1} u, for u its column in the first k rows, spans a
    kernel direction; D_k z is integral, and is back-substitution through
    the first k pivot rows of D_k e_i.  The later steps act on positions k
    and on, where z is zero, so P z is in ker s.  s must be symmetric; the
    callers check it.
    """
    n, m = s.rows, s.to_rows()
    # the matrix stays symmetric, so row i is kept from column i on only

    def swap(i: int, j: int) -> None:
        # symmetric swap of i <= j, a step; the entries that cross the
        # diagonal are read from the other triangle
        steps.append((i, j, True))
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        for x in range(i + 1, j):
            m[i][x], m[x][j] = m[x][i], m[j][x]
        m[i][j] = m[j][i]

    # rows and columns k..end-1 are the active block, and each row of the
    # Schur complement found zero is split off to end..n-1
    n_plus = k = 0
    end, prev = n, 1
    steps = []  # (k, j, is_swap) per congruence step
    splits = []  # (k, position) per row split off
    while k < end:
        if m[k][k] == 0:
            nz_diag = next((i for i in range(k + 1, end) if m[i][i]), None)
            partner = next((j for j in range(k + 1, end) if m[k][j]), None)
            if nz_diag is not None:
                swap(k, nz_diag)
            elif partner is None:
                end -= 1  # a zero row of the Schur complement
                swap(k, end)
                splits.append((k, end))
                continue
            else:
                # e_k -> e_k + e_partner adds row partner (above the diagonal
                # read as column partner) to row k; m[k][k] becomes 2 m[k][partner]
                pk, pp = m[k], m[partner]
                col = [m[i][partner] for i in range(k + 1, partner)] + pp[partner:]
                pk[k + 1 :] = map(add, pk[k + 1 :], col)
                pk[k] = 2 * pk[partner]
                for row in m[:k]:
                    row[k] += row[partner]
                steps.append((k, partner, False))
        pk, p = m[k], m[k][k]
        n_plus += (p > 0) == (prev > 0)
        if k + 1 < end:
            pl, b, d = m[k + 1], pk[k + 1], m[k + 1][k + 1]
            if after := (p * d - b * b) // prev:  # D_{k+2}: pivots k and k+1 in one sweep
                scale, square = after * prev, prev * prev
                for i in range(k + 2, end):
                    mi, u, v = m[i], pk[i], pl[i]
                    fy, fz = b * v - d * u, b * u - p * v
                    mi[i:] = [
                        (scale * x + fy * y + fz * z) // square
                        for x, y, z in zip(mi[i:], pk[i:], pl[i:])
                    ]
                pl[k + 1 :] = [(p * z - b * y) // prev for y, z in zip(pk[k + 1 :], pl[k + 1 :])]
                n_plus += (after > 0) == (p > 0)
                prev = after
                k += 2
                continue
        for i in range(k + 1, end):
            mi, f = m[i], pk[i]
            mi[i:] = [(p * x - f * y) // prev for x, y in zip(mi[i:], pk[i:])]
        prev = p
        k += 1
    rows = tuple(m[i][i:] for i in range(end))
    kernel, scale = [], 1
    for k, i in reversed(splits):  # by position: the last row split off lies first
        z = [0] * n
        z[i] = rows[k - 1][0] if k else 1
        scale *= abs(z[i])
        kernel.append(_substitute(rows[:k], steps, [0] * k, z))
    sig = SignatureTriple(n_plus, end - n_plus, n - end)
    return BareissPass(sig, prev if end == n else 0, rows, tuple(steps), tuple(kernel), scale)


def _euclid(
    m: list[list[int]], candidates: Sequence[int], j: int, inverse: list | None = None
) -> int | None:
    """Steps row i -= q row p among the rows `candidates` of m, p the one
    with the least nonzero |m[p][j]|, until one is nonzero in column j;
    returns it (None if none is).  Each step is undone on the columns of
    `inverse`, if given: column p gains q times column i."""
    while True:
        live = [i for i in candidates if m[i][j]]
        if not live:
            return None
        p = min(live, key=lambda i: abs(m[i][j]))
        if len(live) == 1:
            return p
        x = m[p][j]
        for i in live:
            q = m[i][j] // x
            if i != p and q:
                m[i] = [a - q * b for a, b in zip(m[i], m[p])]
                if inverse:
                    inverse[p] = [a + q * b for a, b in zip(inverse[p], inverse[i])]


def _echelon(vectors: Sequence[Vector]) -> tuple[Vector, ...]:
    """The echelon (Hermite) basis of the lattice spanned by independent
    vectors: pivots positive and moving right, the other entries of a pivot
    column in [0, pivot).  It depends on the lattice alone."""
    rows = [list(v) for v in vectors]
    t = 0
    for j in range(len(rows[0]) if rows else 0):
        p = _euclid(rows, range(t, len(rows)), j)
        if p is None:
            continue
        rows[t], rows[p] = rows[p], rows[t]
        if rows[t][j] < 0:
            rows[t] = [-x for x in rows[t]]
        for i in range(t):
            q = rows[i][j] // rows[t][j]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
        t += 1
    return tuple(map(tuple, rows))


class KernelSplit(NamedTuple):
    """P = [W_1 | K] unimodular up to column order, K a basis of ker B cap
    Z^n, and R_1 and R_K the rows of R = P^{-1} dual to W_1 and to K, so
    R_1^T W_1^T + R_K^T K^T = I.  Then B = R_1^T B' R_1 for the nonsingular
    core B' = W_1^T B W_1, so coker B = coker B' + Z^k, and R_1 G R_1^T / L =
    B'^{-1} for any G with B G B = L B: the box of B' reads solves through
    the pass on B, and B' itself is never built.  A nonsingular B has the
    trivial split: R_1 = W_1 = I, no K and no R_K, and B' = B."""

    rows: tuple[Vector, ...]
    columns: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    kernel_rows: tuple[Vector, ...]


def _split(kernel: Sequence[Vector], n: int) -> KernelSplit:
    """Euclid row steps R on the n x k matrix Z of k independent vectors of
    ker B leave one nonzero row per column.  P = R^{-1} is tracked by columns,
    so Z = P (R Z) spans the columns K of P at those rows, saturated as P is
    unimodular.  No kernel vectors (a nonsingular B) give the trivial split
    at once."""
    k = len(kernel)
    if not k:
        identity = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        return KernelSplit(identity, identity, (), ())
    z = [[v[i] for v in kernel] + e for i, e in enumerate(_identity_lists(n))]  # [Z | R]
    p = _identity_lists(n)  # P, by columns
    free = list(range(n))
    taken = []
    for t in range(k):
        taken.append(_euclid(z, free, t, p))
        free.remove(taken[-1])
    return KernelSplit(
        rows=tuple(tuple(z[i][k:]) for i in free),
        columns=tuple(map(tuple, (p[i] for i in free))),
        kernel=tuple(map(tuple, (p[i] for i in taken))),
        kernel_rows=tuple(tuple(z[i][k:]) for i in taken),
    )


class HomologySummary(NamedTuple):
    """coker(B) data: H_1 = Z^n / im(B)."""

    invariant_factors: tuple[int, ...]
    betti_1: int
    dim_h1_mod2: int
    torsion_order: int
    kernel_basis: tuple[Vector, ...]


class IntegerForm(NamedTuple):
    """An integer generalized inverse G of a symmetric B over one
    denominator L >= 1, B G B = L B.

    Built by `_integer_form` from the one pass on B, for singular and
    nonsingular B alike.  For nonsingular B, G = L B^{-1}, a multiple of the
    adjugate, and L is the largest invariant factor; for singular B, L is
    whatever the pass leaves.  Either way x = G c / L solves B x = c for
    every torsion c = B a, since B G B a = L B a.

    The form of B on other columns C has G / L = C^T G_0 C
    (`MatrixAnalysis.torsion_form` solves its generators that way).
    """

    G: tuple[Vector, ...]
    L: int


def _integer_form(p: BareissPass, vectors: Sequence[Sequence[int]]) -> IntegerForm:
    """The integer form of B on the columns of C = [v_1 ... v_m], from the
    pass p on B: each column solved (`BareissPass.solve`), paired with the
    others, C^T (D_r G_0 C) = D_r C^T G_0 C, and the pairing and D_r divided
    by their gcd g, so G / L = C^T G_0 C with L = |D_r| / g."""
    scale = p.minor
    solved = list(map(p.solve, vectors))
    # each v by its nonzero entries: a column of I has one
    sparse = [[(k, x) for k, x in enumerate(v) if x] for v in vectors]
    pairs = [[sum(x * z[k] for k, x in v) for z in solved] for v in sparse]
    g = math.gcd(scale, *itertools.chain.from_iterable(pairs)) * (1 if scale > 0 else -1)
    return IntegerForm(G=tuple(tuple(x // g for x in row) for row in pairs), L=scale // g)


# points per chunk of a `walk`: a chunk's lists, and the text the CLI makes
# of them, stay near a megabyte whatever the size of the box
CHUNK = 1 << 14

Chunk = tuple[list[list[int]], list[int]]


def walk(factors: Sequence[int], Q: Sequence[Sequence[int]], M: int,
         b: Sequence[int] | None = None, a: int = 0, A: Sequence[Sequence[int]] = (),
         a0: Sequence[int] | None = None) -> Iterator[Chunk]:
    """The box 0 <= y_i < d_i over the k `factors`, in `itertools.product`
    order (the first factor slowest), as chunks (columns, residues) of at
    most `CHUNK` points, read when the walk starts: the residues of
    y^T Q y + b^T y + a mod M for a symmetric Q (b zero if not given), and
    `columns[i]` the i-th coordinate of A y + a0 over the rows of A (a0
    zero if not given; no columns when A is empty).  The library's one
    walk: the torsion form's box (`surgery.torsion_chunks` and
    `TorsionForm.values`, the formula side of `combing.p1_image`) and the
    sweep of `combing.p1_image`.  A box with no factor is one
    point, and one with a zero factor none.

    By finite differences, O(1) per point and per coordinate, with no tuple
    built per point: a unit step of y_j adds s_j = 2 (Q y)_j + Q_jj + b_j to
    the quadratic, 2 Q_j to s and column j of A to the map (`step`).  The
    prefixes y_0 .. y_{k-2} are walked depth first, so that one path of
    running states is held, not one per prefix: a level is the running
    states of one coordinate (`itertools.accumulate` of its steps), and the
    levels below it are chained lazily (`rows`).  Along the last factor l
    the first differences step by 2 Q_ll and each coordinate of the map by
    A_il.  A row is cut into runs of at most `CHUNK` points, and a chunk
    holds as many whole runs as fit, all of one length: a run is two
    running sums, and the map over a chunk is one progression per run and
    coordinate, built when the chunk is full (`lifts`).  A run that starts
    inside a row, at t, starts from the closed form there: q + t s_l +
    Q_ll t (t - 1), with first difference s_l + 2 Q_ll t."""
    k, chunk = len(factors), CHUNK
    b, a0 = b or [0] * k, a0 or [0] * len(A)
    if not k or 0 in factors:  # one point, or none
        yield from [] if k else [([[x] for x in a0], [a % M])]
        return
    # a state is (the quadratic, s followed by the map): a step of y_j adds
    # R_j, 2 Q_j followed by column j of A, to the list at once
    R = [[2 * x for x in row] + list(col) for row, col in zip(Q, zip(*A) if A else [()] * k)]
    last, d, second, gl = k - 1, factors[-1], 2 * Q[-1][-1], R[-1][k:]

    def step(state: tuple, j: int) -> tuple:  # a unit step of y_j
        return (state[0] + state[1][j]) % M, list(map(add, state[1], R[j]))

    def rows(state: tuple, j: int) -> Iterable[tuple]:  # the prefixes below one, depth first
        level = accumulate(repeat(j, factors[j] - 1), step, initial=state)
        return level if j == last - 1 else chain.from_iterable(map(rows, level, repeat(j + 1)))

    def lifts(runs: list, m: int) -> list[list[int]]:  # the map over runs of m points
        return [list(chain.from_iterable(map(range, xs, map(add, xs, repeat(m * g)), repeat(g))
                                         if g else map(repeat, xs, repeat(m))))
                for xs, g in zip(zip(*runs), gl)]

    # the runs of a row: a row longer than a chunk is cut into runs of a
    # chunk, and a chunk holds whole runs
    pieces = [(t, (second,) * (min(d - t, chunk) - 2), (M,) * min(d - t, chunk))
              for t in range(0, d, chunk)]
    runs, residues = [], []  # the map at each run's first point, and the residues
    origin = (a % M, [Q[j][j] + b[j] for j in range(k)] + list(a0))
    for q, s in rows(origin, 0) if last else (origin,):
        sl = s[last]
        for t, dd, moduli in pieces:  # dd: the second differences of the run
            if len(residues) + len(moduli) > chunk:
                yield lifts(runs, len(residues) // len(runs)), residues
                runs, residues = [], []
            # from the closed form at the run's first point t
            ds, q0 = accumulate(dd, initial=sl + second * t), q + (sl + second * (t - 1) // 2) * t
            residues.extend(map(mod, accumulate(ds, initial=q0), moduli))
            runs.append(list(map(add, s[k:], map(mul, gl, repeat(t)))) if t else s[k:])
    yield lifts(runs, len(residues) // len(runs)), residues


class TorsionForm(NamedTuple):
    """The linking form on the torsion subgroup of coker(B), in box
    coordinates.

    Every torsion class is `generators` y for exactly one y in the box
    0 <= y_i < d_i over the k `factors` d_i; column i of the n x k matrix
    `generators` is g_i.  The box is the Hermite box of the core B' (B
    itself when nonsingular): over the i with h_ii > 1, d_i = h_ii and
    g_i = R_1^T e_i, so `generators` y is the class's `reduce` (the d_i need
    not be invariant factors).  Q / L is the integer form of B on the
    generators alone (`_integer_form`), Q_ij / L = g_i^T B^+ g_j, with Q
    reduced mod L, so v^T B^+ v = y^T Q y / L (mod 1).  The pairings are
    integer combinations of the entries of D_r G_0, so L divides the L of
    `MatrixAnalysis.form`; it can be smaller for a singular B.  The box is
    walked by `walk`: `surgery.torsion_chunks` for the classes and their
    residues -(y^T Q y) mod L, `values` for the formula side of
    `combing.p1_image`.
    """

    factors: tuple[int, ...]
    generators: tuple[Vector, ...]
    Q: tuple[Vector, ...]
    L: int

    def values(self, scale: int, M: int, a: int = 0) -> set[int]:
        """The set of a + scale y^T Q y mod M over the classes y, for an M
        that divides scale L.  A class and its negative have one value, and
        `MatrixAnalysis.reduce` works from the last coordinate up, so the
        class of -y has last coordinate -y_l mod d_l: the set is read off
        the y_l <= d_l / 2, about half the box."""
        half = [*self.factors[:-1], *(d // 2 + 1 for d in self.factors[-1:])]
        chunks = walk(half, [[scale * x for x in row] for row in self.Q], M, a=a)
        return set(chain.from_iterable(residues for _, residues in chunks))


def _pack(G: Sequence[Sequence[int]], bits: int) -> tuple:
    """The columns of an n x n integer G packed for `MatrixAnalysis._product`
    in the narrowest slots that admit a c of entries of at most `bits` bits:
    (columns, m, room, bias, unpack), with entry i of a column in slot i of
    m 64-bit words, least significant first, `room` the largest bit length
    of an entry of c that the slots admit, `bias` half a slot in every slot,
    and `unpack` the reader of n slots of m - 1 unsigned words and a signed
    top word each."""
    n, top = len(G), max(map(abs, chain.from_iterable(G)), default=0)
    extra = top.bit_length() + n.bit_length() + 2
    m = -(-(extra + bits) // 64)
    columns = [sum(map(lshift, col, range(0, 64 * m * n, 64 * m))) for col in zip(*G)]
    bias = int.from_bytes((1 << 64 * m - 1).to_bytes(8 * m, "little") * n, "little")
    return columns, m, 64 * m - extra, bias, struct.Struct("<" + ("Q" * (m - 1) + "q") * n).unpack


class MatrixAnalysis:
    """What the library derives from one symmetric integer matrix.

    Each field is computed on first use and kept while the matrix stays in
    the memo of `analysis`.  Every field reads the one symmetric Bareiss pass
    on B, `_pass` (`_signature`), directly or through another field: the
    signature and det B are in it, the torsion test `is_torsion` and the
    `split` read its kernel vectors, `torsion_order` its pivots and the
    split, `form` and the `torsion_form` solve through its pivot rows, and
    `box` reads the adjugate columns of the nonsingular core through them.
    So any question, in any order, on a singular or a nonsingular B, costs
    one pass, on B, and none on any other matrix.  The class questions
    (`reduce`, `homology` and `torsion_form`) read the `split` and the
    `box`, the Hermite form of the core: the matrix itself when it is
    nonsingular; none of them reads `form`, and `torsion_order` reads
    neither `box` nor `form`.

    The vector questions, `pairing`, `in_lattice` and the self-pairing
    `square`, follow one rule that depends on the entry's history alone:
    the first vector question solves w through the pass (`_solution`), and
    every later one reads `form`, which it builds once: G w is one sum of
    n products of G's packed columns (`_product`, packed once beside
    `form`, and again only for a wider c), and a later pairing, membership
    or `square`, which `theta_g` asks, reads it.  `combing.p1_image` reads
    `_product` for c_ref's self-pairing and for its sweep's offset G s too;
    its sweep walks the box (`walk`).  So a single question pays for one
    solve, and a scan on one B for n solves and then one packed product per
    vector.  `combing.combing_equal` is one vector question: it reads a
    pairing and the lattice test `_integral` off one `_solution`.
    """

    _asked = False  # set on the entry by its first vector question

    def __init__(self, matrix: IntMatrix) -> None:
        self.matrix = matrix

    @cached_property
    def _pass(self) -> BareissPass:
        return _signature(self.matrix)

    @property
    def signature(self) -> SignatureTriple:
        return self._pass.signature

    @cached_property
    def torsion_order(self) -> int:
        """The order |det B'| of the torsion subgroup coker B' of coker B,
        off the pass, and the split for a singular B, so no box is built to
        compare it with a cap.  The pass's first r congruence columns are P_1 = W_1 A + K C for
        integral A and C, since [W_1 | K] is unimodular, and B K = 0, so its
        pivot block is A^T B' A and |det B'| = |D_r| / det(A)^2.  The kernel
        vectors Z have P-coordinates diag(D_{k_i}) below row r and are K T
        for T = R_K Z, so |det A| = prod |D_{k_i}| / |det T|, and T is upper
        triangular: the Euclid steps of `_split` clear column t from every
        row still free, so det T is the product of the R_K[t] . Z_t.  For a
        nonsingular B, det A = 1 and this is |det B|."""
        p = self._pass
        pairs = zip(self.split.kernel_rows, p.kernel) if p.kernel else ()  # a nonsingular B builds no split
        t = math.prod(abs(sum(map(mul, x, z))) for x, z in pairs)
        return abs(p.minor) // (p.kernel_scale // t) ** 2

    def is_torsion(self, c: Sequence[int]) -> bool:
        """c in the rational column space of B, i.e. of a torsion class: B is
        symmetric, so c is orthogonal to the pass's kernel vectors (none if
        B is nonsingular).  The library's one torsion test."""
        kernel = self._pass.kernel
        return not kernel or not any(sum(map(mul, z, c)) for z in kernel)

    def _solution(self, w: Sequence[int]) -> tuple[Sequence[int], int]:
        """(y, d) with y / d = G_0 w, which solves B x = w for a torsion w.
        The entry's first vector question solves w through the pass, y =
        D_r G_0 w and d = D_r; every later one reads `form`, y = G w off the
        packed columns (`_product`), and d = L."""
        if not self._asked:
            self._asked = True
            return self._pass.solve(w), self._pass.minor
        return self._product(w), self.form.L

    def square(self, c: Sequence[int]) -> tuple[int, int]:
        """(q, d) with q / d = c^T G_0 c, which is c^T x for every solution
        x of B x = c when c is torsion (`is_torsion`, which the caller asks):
        c paired with the y of `_solution`(c)."""
        y, d = self._solution(c)
        return sum(map(mul, c, y)), d

    # G's packed columns (`_pack`); a room of -1 admits no c, so the first
    # `_product` packs G
    _packed = ((), 1, -1, 0, None)

    def _product(self, c: Sequence[int]) -> tuple[int, ...]:
        """G c for G of `form`, by Kronecker substitution (Schoenhage 1982):
        n products of wide integers in place of n^2 small ones.  Column j of
        G is packed into one integer, entry i in slot i of W = 64 m bits
        (`_pack`), so sum_j c_j column_j holds (G c)_i in slot i.  With the
        bias, half a slot added to each, every slot is (G c)_i + 2^(W-1) in
        [0, 2^W), so no slot borrows from the next; the bias taken off again
        by xor leaves each slot the W-bit two's complement of (G c)_i, read
        by one `to_bytes` and one unpack, and m - 1 shift-and-add maps join
        the words of a slot.  |(G c)_i| <= n max|G| max|c| < 2^(W-1) when
        W >= bits(max|G|) + bits(max|c|) + bits(n) + 2; a c too large for
        the slots packs G again, wider, and the entry keeps the new
        packing."""
        bits = max(map(abs, c), default=0).bit_length()
        columns, m, room, bias, unpack = self._packed
        if bits > room:
            columns, m, room, bias, unpack = self._packed = _pack(self.form.G, bits)
        total = sum(map(mul, columns, c)) + bias
        words = unpack((total ^ bias).to_bytes(8 * m * len(columns), "little"))
        y = words[m - 1 :: m]  # the signed top word of each slot
        for k in reversed(range(m - 1)):  # then its lower words
            y = map(add, map(lshift, y, repeat(64)), words[k::m])
        return tuple(y)

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> Fraction:
        """v^T G_0 w, which is v^T x for every solution x of B x = w when
        v and w are torsion (`is_torsion`, which the caller asks); one
        `_solution`, of w."""
        y, d = self._solution(w)
        return Fraction(sum(map(mul, v, y)), d)

    def in_lattice(self, c: Sequence[int]) -> bool:
        """c in B Z^n: c is torsion and R_1 G_0 c is integral (`_integral`)
        for y / d = G_0 c (`_solution`)."""
        return self.is_torsion(c) and self._integral(*self._solution(c))

    def _integral(self, y: Sequence[int], d: int) -> bool:
        """Is R_1 y / d = B'^{-1} W_1^T w integral, for y / d = G_0 w of a
        torsion w (`_solution`)?  Then and only then w lies in B Z^n: d
        divides every entry of y for a nonsingular B, where R_1 = I, and of
        R_1 y otherwise.  The first entry that d does not divide ends the
        test."""
        if self._pass.kernel:
            y = map(sum, map(map, repeat(mul), self.split.rows, repeat(y)))  # R_1 y, lazily
        return not any(map(mod, y, repeat(d)))

    def reduce(self, v: Sequence[int]) -> Vector:
        """The canonical representative of v modulo B Z^n.

        B Z^n = R_1^T B' Z^r, so it is v - R_1^T (y - x) with y = W_1^T v and
        x the one vector of the core's Hermite box 0 <= x_i < h_ii in the
        class of y: the box is a fundamental domain of B' Z^r since H is
        triangular, and x is zero wherever h_ii = 1.  v + B u gives
        y + B' R_1 u, hence the same vector; the free part of v is kept.
        As R_1^T W_1^T + R_K^T K^T = I, it is R_K^T K^T v + R_1^T x, and only
        the nonzero entries of x are lifted.
        """
        split = self.split
        # y, reduced in place; W_1 = I when the split has no kernel
        x = [sum(map(mul, w, v)) for w in split.columns] if split.kernel else list(v)
        # from the last coordinate up, subtract the multiple of column i
        # that brings x_i into [0, h_ii); it leaves the coordinates after i
        for i, col in reversed(list(enumerate(self.box))):
            if q := x[i] // col[i]:
                for k, h in col.items():
                    x[k] -= q * h
        free = [sum(map(mul, z, v)) for z in split.kernel]  # K^T v
        out = [0] * len(v)
        for a, row in zip(free + x, split.kernel_rows + split.rows):
            if a:
                out = [b + a * r for b, r in zip(out, row)]
        return tuple(out)

    @cached_property
    def split(self) -> KernelSplit:
        """The split along the pass's kernel vectors; trivial for a nonsingular B."""
        return _split(self._pass.kernel, self.matrix.rows)

    @cached_property
    def box(self) -> tuple[dict[int, int], ...]:
        """The sparse columns {k: h_kj} of the Hermite form H of B' Z^r (see
        `_box`) for the nonsingular core B' = W_1^T B W_1 of the split, whose
        box 0 <= x_i < h_ii is a fundamental domain of B' Z^r.  `_box` reads
        |det B'| (`torsion_order`) and the columns adj(B') e_j, j = r-1 down
        to 0, each solved through the pass on B when read, until they cut
        out B' Z^r.  A nonsingular B is its own core, R_1 = I, and the
        column is `_pass.solve`(e_j).  For a singular one B'^{-1} = R_1 G_0
        R_1^T (`KernelSplit`), so the column is R_1 `_pass.solve`(R_1^T e_j)
        / det(A)^2, an exact division, with det(A)^2 = |D_r| / |det B'|."""
        p, rows, order = self._pass, self.split.rows, self.torsion_order
        columns = map(p.solve, reversed(rows))
        if p.kernel:
            square = abs(p.minor) // order
            columns = ([sum(map(mul, x, y)) // square for x in rows] for y in columns)
        return _box(len(rows), order, columns)

    @cached_property
    def homology(self) -> HomologySummary:
        # coker B = coker B' + Z^k.  A row of the core's H with h_ii = 1 is
        # e_i^T, so coker B' is Z^T / H[T, T] over the positions T with
        # h_ii > 1; its Smith form runs on that |T| x |T| block only
        cols = self.box
        t = [i for i, col in enumerate(cols) if col[i] > 1]
        block = [[cols[j].get(i, 0) for j in t] for i in t]
        _diagonalize(block)
        kernel = self.split.kernel
        diag = tuple(row[k] for k, row in enumerate(block)) + (0,) * len(kernel)
        factors = tuple(d for d in diag if d > 1)
        return HomologySummary(
            invariant_factors=factors,
            betti_1=len(kernel),
            # H_1 (x) F_2 has one Z/2 per even invariant factor, zeros included
            dim_h1_mod2=sum(1 for d in diag if d % 2 == 0),
            torsion_order=math.prod(factors),
            kernel_basis=_echelon(kernel),
        )

    @cached_property
    def form(self) -> IntegerForm:
        """The integer form of B on the columns of I (`_integer_form`)."""
        return _integer_form(self._pass, _identity_lists(self.matrix.rows))

    @cached_property
    def _mod2(self) -> tuple[Vector, int]:
        """c_ref and rank_F2(B), from one Gauss-Jordan elimination over F_2
        of [B | diag B], each row one int with the diagonal entry at bit n.
        Column j pivots on the first row at or below the next pivot position
        with bit j set.  The diagonal of a symmetric B lies in its F_2 column
        space, so u solves B u = diag B, with its free variables zero."""
        b, n = self.matrix, self.matrix.rows
        rows = [sum((x & 1) << j for j, x in enumerate(b.row(i))) | (b.at(i, i) & 1) << n
                for i in range(n)]
        pivots: list[int] = []
        for j in range(n):
            k = len(pivots)
            pivot = next((i for i in range(k, n) if rows[i] >> j & 1), None)
            if pivot is None:
                continue
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for i in range(n):
                if i != k and rows[i] >> j & 1:
                    rows[i] ^= rows[k]
            pivots.append(j)
        u = [0] * n
        for k, j in enumerate(pivots):
            u[j] = rows[k] >> n & 1
        return b.matvec(u), len(pivots)

    @property
    def c_ref(self) -> Vector:
        """B u for a solution u of B u = diag(B) over F_2: a characteristic
        vector in B Z^n."""
        return self._mod2[0]

    @property
    def dim_h1_mod2(self) -> int:
        """dim H_1(M; F_2) = n - rank_F2(B), without the homology summary."""
        return self.matrix.rows - self._mod2[1]

    @cached_property
    def torsion_form(self) -> TorsionForm:
        """The generators are the rows of R_1 at the positions i with h_ii > 1
        of the box, and Q / L is the integer form of B on them alone: k
        solves through the pass, and no `form`."""
        positions = tuple(i for i, col in enumerate(self.box) if col[i] > 1)
        g = [self.split.rows[i] for i in positions]
        form = _integer_form(self._pass, g)
        return TorsionForm(
            factors=tuple(self.box[i][i] for i in positions),
            generators=tuple(tuple(gj[row] for gj in g) for row in range(self.matrix.rows)),
            Q=tuple(tuple(x % form.L for x in row) for row in form.G),
            L=form.L,
        )


# The library's one per-matrix cache.  32 entries hold every presentation of
# a Spin^c scan over a dozen matrices while keeping the memory of a stream of
# large, never-repeated presentations bounded.
MEMO_SIZE = 32


@lru_cache(maxsize=MEMO_SIZE)
def analysis(a: IntMatrix) -> MatrixAnalysis:
    """The memo entry of a matrix: the MEMO_SIZE most recently used matrices
    keep their analysis."""
    return MatrixAnalysis(a)
