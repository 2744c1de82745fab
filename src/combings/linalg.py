"""Exact linear algebra over the integers and the rationals.

Small dense matrices only.  Every elimination runs on Python's
arbitrary-precision integers (fractions.Fraction appears only in the input and
output of solve_rational); no floating point is used anywhere, so Smith forms,
solves, kernels and signatures are exact and reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[int, ...]
QVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]]) -> "IntMatrix":
        rows = [list(r) for r in data]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("rows must all have the same length")
        return cls(nrows, ncols, tuple(x for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def from_diagonal(cls, rows: int, cols: int, diag: Sequence[int]) -> "IntMatrix":
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = d
        return cls.from_rows(m)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def diagonal(self) -> Vector:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def matvec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length must equal column count")
        return tuple(sum(map(mul, self.row(i), v)) for i in range(self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions must agree")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        rows = self.rows + other.rows
        cols = self.cols + other.cols
        m = [[0] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                m[i][j] = self.at(i, j)
        for i in range(other.rows):
            for j in range(other.cols):
                m[self.rows + i][self.cols + j] = other.at(i, j)
        return IntMatrix.from_rows(m)


def _bareiss_jordan(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Reduce m in place to scale * RREF(m) by fraction-free Gauss-Jordan.

    Bareiss-style: each update divides exactly by the previous pivot, so every
    entry stays an integer minor of the input.  scale, the last pivot, is the
    determinant of the pivot block after the row swaps, so a square m of full
    rank has determinant sign * scale.  Returns (pivot columns, scale, sign).
    """
    pivots: list[int] = []
    scale = sign = 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        row = next((i for i in range(k, len(m)) if m[i][col]), None)
        if row is None:
            continue
        if row != k:
            m[k], m[row] = m[row], m[k]
            sign = -sign
        pk = m[k]
        p = pk[col]
        for i, mi in enumerate(m):
            if i != k:
                f = mi[col]
                m[i] = [(p * x - f * y) // scale for x, y in zip(mi, pk)]
        pivots.append(col)
        scale = p
    return pivots, scale, sign


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    pivots, scale, sign = _bareiss_jordan(a.to_rows())
    return sign * scale if len(pivots) == a.rows else 0


@dataclass(frozen=True)
class SnfResult:
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


def _smith(a: IntMatrix) -> SnfResult:
    """Smith normal form U * A * V = D.

    The pivot is always the smallest nonzero entry in absolute value, ties
    broken by lowest row then column, so U and V are reproducible.  U^{-1}
    is not tracked: A V = U^{-1} D gives its column i as A V e_i / d_i
    wherever d_i != 0 (see `_smith_generator`).
    """
    r, c = a.rows, a.cols
    m = a.to_rows()
    u = _identity_lists(r)
    v = _identity_lists(c)

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def row_sub(i: int, j: int, q: int) -> None:
        if q:
            mi, mj = m[i], m[j]
            for k in range(c):
                mi[k] -= q * mj[k]
            ui, uj = u[i], u[j]
            for k in range(r):
                ui[k] -= q * uj[k]

    def col_sub(i: int, j: int, q: int) -> None:
        if q:
            for row in m:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    t = 0
    bound = min(r, c)
    while t < bound:
        best = None
        for i in range(t, r):
            for j in range(t, c):
                e = m[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if m[t][t] < 0:
            negate_row(t)
        p = m[t][t]
        for i in range(t + 1, r):
            row_sub(i, t, m[i][t] // p)
        for j in range(t + 1, c):
            col_sub(j, t, m[t][j] // p)
        if any(m[i][t] for i in range(t + 1, r)) or any(
            m[t][j] for j in range(t + 1, c)
        ):
            continue  # a remainder smaller than the pivot appeared; re-pivot
        bad_row = None
        for i in range(t + 1, r):
            if any(m[i][j] % p for j in range(t + 1, c)):
                bad_row = i
                break
        if bad_row is not None:
            row_sub(t, bad_row, -1)  # pull the non-multiple into row t
            continue
        t += 1

    return SnfResult(
        U=IntMatrix.from_rows(u),
        D=IntMatrix.from_rows(m) if r else IntMatrix(0, c, ()),
        V=IntMatrix.from_rows(v),
    )


def _smith_generator(a: IntMatrix, snf: SnfResult, i: int) -> Vector:
    """U^{-1} e_i = A V e_i / d_i for d_i != 0, exact since A V = U^{-1} D."""
    d = snf.diag[i]
    return tuple(x // d for x in a.matvec(snf.V.column(i)))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot is always the smallest nonzero entry in absolute value, ties
    broken by lowest row then column, so U and V are reproducible.  Kept in
    the per-matrix memo of `analysis`.
    """
    return analysis(a).snf


@dataclass(frozen=True)
class RationalSolve:
    """Outcome of a rational linear solve.

    ``solution`` is None when b is outside the column space; ``kernel``
    is always a basis of the rational kernel of A.
    """

    solution: QVector | None
    kernel: tuple[QVector, ...]


def solve_rational(a: IntMatrix, b: Sequence[int | Fraction]) -> RationalSolve:
    """Solve A x = b over Q, read off the reduced echelon form of [A | l b].

    l is the lcm of the denominators of b, so the fraction-free Gauss-Jordan
    kernel runs on integers; b lies in the column space iff the last column
    is not a pivot.
    """
    r, c = a.rows, a.cols
    if len(b) != r:
        raise ValueError("right-hand side length must equal row count")
    rhs = [Fraction(x) for x in b]
    lcm = math.lcm(*(x.denominator for x in rhs))
    m = [list(a.row(i)) + [int(x * lcm)] for i, x in enumerate(rhs)]
    pivots, scale, _ = _bareiss_jordan(m)
    solution: QVector | None = None
    if pivots and pivots[-1] == c:
        pivots.pop()
    else:
        x = [Fraction(0)] * c
        for k, col in enumerate(pivots):
            x[col] = Fraction(m[k][c], scale * lcm)
        solution = tuple(x)
    kernel = []
    for f in (j for j in range(c) if j not in pivots):
        z = [Fraction(0)] * c
        z[f] = Fraction(1)
        for k, col in enumerate(pivots):
            z[col] = Fraction(-m[k][f], scale)
        kernel.append(tuple(z))
    return RationalSolve(solution=solution, kernel=tuple(kernel))


class SignatureTriple(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int


def signature(s: IntMatrix) -> SignatureTriple:
    """Inertia of a symmetric integer matrix by symmetric Bareiss elimination.

    Exact on integers (Sylvester's law of inertia): the k-th square of the
    LDL^T form has the sign of D_k / D_{k-1}, with D_k the determinant of the
    first k pivots.  Kept in the per-matrix memo of `analysis`.
    """
    return analysis(s).signature


def _signature(s: IntMatrix) -> SignatureTriple:
    if not s.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    m = s.to_rows()

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    # rows and columns k..end-1 are the active block: each entry is a minor of
    # a matrix congruent to s, D_k times the Schur complement of k pivots
    n_plus = k = 0
    end, prev = s.rows, 1
    while k < end:
        if m[k][k] == 0:
            nz_diag = next((i for i in range(k + 1, end) if m[i][i]), None)
            partner = next((j for j in range(k + 1, end) if m[k][j]), None)
            if nz_diag is not None:
                swap(k, nz_diag)
            elif partner is None:
                end -= 1  # a zero row of the Schur complement
                swap(k, end)
                continue
            else:
                # e_k -> e_k + e_partner; m[k][k] becomes 2 m[k][partner]
                for row in m[k:end]:
                    row[k] += row[partner]
                for j in range(k, end):
                    m[k][j] += m[partner][j]
        pk = m[k]
        p = pk[k]
        n_plus += (p > 0) == (prev > 0)
        for mi in m[k + 1 : end]:
            f = mi[k]
            mi[k + 1 : end] = [
                (p * x - f * y) // prev for x, y in zip(mi[k + 1 : end], pk[k + 1 : end])
            ]
        prev = p
        k += 1
    return SignatureTriple(n_plus, end - n_plus, s.rows - end)


def _normalize_sign(v: Sequence[int]) -> Vector:
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def kernel_basis(a: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the integer kernel lattice of A (primitive and saturated).

    The basis vectors are the kernel columns of the Smith V, each normalized
    so its first nonzero coordinate is positive.
    """
    snf = smith_normal_form(a)
    rank = snf.rank
    return tuple(
        _normalize_sign(snf.V.column(j)) for j in range(rank, a.cols)
    )


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution of A x = b, or None if none exists."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length must equal row count")
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


def solve_mod2(a: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One solution of A x = b over F_2 (free variables set to zero)."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length must equal row count")
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
        return None
    x = [0] * c
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][c]
    return tuple(x)


@dataclass(frozen=True)
class HomologySummary:
    """coker(B) data: H_1 = Z^n / im(B)."""

    invariant_factors: tuple[int, ...]
    betti_1: int
    dim_h1_mod2: int
    torsion_order: int
    kernel_basis: tuple[Vector, ...]


@dataclass(frozen=True)
class IntegerForm:
    """An integer generalized inverse G of B over one denominator L.

    G = V diag(L/d_i, or 0 where d_i = 0) U from the Smith form, with L the
    largest invariant factor; for nonsingular B this is G = L B^{-1}, whose
    entries are bounded like those of the adjugate.  For every torsion c
    (c in the rational column space of B), x = G c / L solves B x = c.  c is
    torsion iff (U c)_i = 0 wherever d_i = 0; `null_rows` holds those rows
    of U and is empty when B is nonsingular.
    """

    G: tuple[Vector, ...]
    L: int
    null_rows: tuple[Vector, ...]

    def is_torsion(self, c: Sequence[int]) -> bool:
        return not any(sum(map(mul, row, c)) for row in self.null_rows)

    def in_lattice(self, c: Sequence[int]) -> bool:
        """c in B Z^n: c is torsion and L divides every entry of G c.

        G c / L = V z with z_i = (U c)_i / d_i, and V is unimodular, so G c / L
        is integral iff z is, i.e. iff B x = c has an integer solution.
        """
        return self.is_torsion(c) and not any(
            sum(map(mul, row, c)) % self.L for row in self.G
        )

    def pair(self, v: Sequence[int], w: Sequence[int]) -> int:
        """v^T G w, which is L v^T x for the solution x = G w / L of B x = w."""
        return sum(map(mul, v, [sum(map(mul, row, w)) for row in self.G]))


@dataclass(frozen=True)
class TorsionForm:
    """The linking form on the torsion subgroup of coker(B), in Smith
    coordinates.

    The torsion subgroup is the direct sum of Z/d_i over the `positions` i
    of the invariant factors d_i > 1, generated by g_i = U^{-1} e_i, read off
    B V = U^{-1} D as g_i = B V e_i / d_i (U^{-1} itself is never formed).
    Column i of the n x k matrix `generators` is g_i, so the class with
    Smith coordinates y (0 <= y_i < d_i) is v = `generators` y.  The k x k
    matrix Q_ij = g_i^T G g_j mod L gives v^T G v = y^T Q y (mod L).
    """

    positions: tuple[int, ...]
    factors: tuple[int, ...]
    generators: tuple[Vector, ...]
    Q: tuple[Vector, ...]
    L: int

    def coordinates(self) -> Iterable[Vector]:
        """Smith coordinates of every torsion class, each factor 0..d_i-1,
        the first factor varying slowest."""
        return itertools.product(*(range(d) for d in self.factors))

    def lift(self, y: Sequence[int]) -> Vector:
        """U^{-1} y: the meridian vector of the class with coordinates y."""
        return tuple(sum(map(mul, row, y)) for row in self.generators)

    def residue(self, y: Sequence[int]) -> int:
        """r = -(y^T Q y) mod L, so the class has self-linking r / L mod 1."""
        return -sum(a * sum(map(mul, row, y)) for a, row in zip(y, self.Q)) % self.L


def _torsion_form(a: IntMatrix, snf: SnfResult, form: IntegerForm) -> TorsionForm:
    positions = tuple(i for i, d in enumerate(snf.diag) if d > 1)
    g = [_smith_generator(a, snf, i) for i in positions]
    g_images = [[sum(map(mul, row, gj)) for row in form.G] for gj in g]  # G g_j
    return TorsionForm(
        positions=positions,
        factors=tuple(snf.diag[i] for i in positions),
        generators=tuple(tuple(gj[row] for gj in g) for row in range(a.rows)),
        Q=tuple(tuple(sum(map(mul, gi, ggj)) % form.L for ggj in g_images) for gi in g),
        L=form.L,
    )


def _integer_form(snf: SnfResult) -> IntegerForm:
    # the nonzero invariant factors are d_0 | d_1 | ... | d_{rank-1}
    diag, rank = snf.diag, snf.rank
    scale = diag[rank - 1] if rank else 1
    v_rows = [
        [snf.V.at(a, i) * (scale // diag[i]) for i in range(rank)]
        for a in range(snf.V.rows)
    ]
    u_cols = [[snf.U.at(i, b) for i in range(rank)] for b in range(snf.U.cols)]
    return IntegerForm(
        G=tuple(tuple(sum(map(mul, vr, uc)) for uc in u_cols) for vr in v_rows),
        L=scale,
        null_rows=tuple(snf.U.row(i) for i in range(rank, snf.U.rows)),
    )


class MatrixAnalysis:
    """What the library derives from one integer matrix.

    Each field is computed on first use and kept while the matrix stays in
    the memo of `analysis`.
    """

    def __init__(self, matrix: IntMatrix) -> None:
        self.matrix = matrix

    @cached_property
    def snf(self) -> SnfResult:
        return _smith(self.matrix)

    @cached_property
    def signature(self) -> SignatureTriple:
        return _signature(self.matrix)

    @cached_property
    def homology(self) -> HomologySummary:
        snf = self.snf
        factors = tuple(d for d in snf.diag if d > 1)
        return HomologySummary(
            invariant_factors=factors,
            betti_1=self.matrix.rows - snf.rank,
            # H_1 (x) F_2 has one Z/2 per even invariant factor, zeros included
            dim_h1_mod2=sum(1 for d in snf.diag if d % 2 == 0),
            torsion_order=math.prod(factors),
            kernel_basis=kernel_basis(self.matrix),
        )

    @cached_property
    def form(self) -> IntegerForm:
        return _integer_form(self.snf)

    @cached_property
    def torsion_form(self) -> TorsionForm:
        return _torsion_form(self.matrix, self.snf, self.form)


# The library's one per-matrix cache.  32 entries hold every presentation of
# a Spin^c scan over a dozen matrices while keeping the memory of a stream of
# large, never-repeated presentations bounded.
MEMO_SIZE = 32


@lru_cache(maxsize=MEMO_SIZE)
def analysis(a: IntMatrix) -> MatrixAnalysis:
    """The memo entry of a matrix: the MEMO_SIZE most recently used matrices
    keep their analysis."""
    return MatrixAnalysis(a)
