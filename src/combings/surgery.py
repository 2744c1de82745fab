"""Surgery presentations, their first homology and the torsion linking form.

A presentation is the symmetric linking matrix B of an integrally framed
link; the meridians of the components generate H_1 with relation matrix B.
Sign convention: lk(sum v_i m_i, sum w_j m_j) = -v^T B^{-1} w, fixed so that
the surgery computation of the Gompf invariant matches the standard
stabilization arithmetic (see the combing module).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceededError, DimensionMismatchError, InvalidInputError, NonTorsionError, instance, integer,
    integers, sequence,
)
from .linalg import (
    HomologySummary,
    IntMatrix,
    Vector,
    analysis,
    walk,
)
from .record import Record

DEFAULT_CAP = 10_000

# A meridian class is a plain coefficient vector on the meridian generators;
# equality of classes is decided modulo the column lattice of B.
MeridianClass = Vector


class SurgeryPresentation(Record):
    """An integral surgery presentation, i.e. a symmetric linking matrix."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix) -> None:
        if instance(matrix, IntMatrix, "matrix").rows != matrix.cols:
            raise InvalidInputError("linking matrix must be square")
        if not matrix.is_symmetric():
            raise InvalidInputError("linking matrix must be symmetric")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SurgeryPresentation":
        return cls(IntMatrix.from_rows(rows))

    @property
    def n(self) -> int:
        return self.matrix.rows


EMPTY_PRESENTATION = SurgeryPresentation(IntMatrix(0, 0, ()))  # presents S^3


def format_residue(r: int, L: int, m: int) -> str:
    """The residue r / L in Q / mZ, for 0 <= r < m L, as "p/q (mod m)": r / L
    in lowest terms, without the "/q" when q is 1, by one gcd."""
    g = math.gcd(r, L)
    p, q = r // g, L // g
    return f"{p} (mod {m})" if q == 1 else f"{p}/{q} (mod {m})"


def homology_summary(pres: SurgeryPresentation) -> HomologySummary:
    """Invariant factors, Betti number, F_2-dimension and kernel of B."""
    return analysis(pres.matrix).homology


def _check_length(pres: SurgeryPresentation, v: Sequence[int]) -> Vector:
    """v as a tuple, once it is a sequence (`sequence`) of one integer
    (`integers`) per component: the one check of a class or coefficient
    vector given to the library."""
    v = sequence(v, "class vector")
    if len(v) != pres.n:
        raise DimensionMismatchError(
            f"class vector has length {len(v)}, presentation has {pres.n} components"
        )
    if not integers(v):
        raise InvalidInputError("class vector entries must be integers")
    return v


def is_torsion_class(pres: SurgeryPresentation, v: Sequence[int]) -> bool:
    """True when v lies in the rational column space of B
    (`MatrixAnalysis.is_torsion`): it reads the pass's kernel vectors and
    builds no integer form."""
    return analysis(pres.matrix).is_torsion(_check_length(pres, v))


def meridian_pairing(
    pres: SurgeryPresentation, v: Sequence[int], w: Sequence[int]
) -> Fraction:
    """Linking number of the torsion meridian classes v and w.

    Computed as -v^T x for the rational solution x = G_0 w of B x = w
    (`MatrixAnalysis.pairing`: on a fresh B, w alone is solved through the
    pass); kernel components pair to zero against the torsion class v, so
    the value does not depend on the solution and is symmetric in v and w.
    """
    v = _check_length(pres, v)
    w = _check_length(pres, w)
    data = analysis(pres.matrix)
    if not data.is_torsion(v):
        raise NonTorsionError("first class is not torsion")
    if not data.is_torsion(w):
        raise NonTorsionError("second class is not torsion")
    return -data.pairing(v, w)


def linking_form(pres: SurgeryPresentation, v: Sequence[int]) -> Fraction:
    """Self-linking of a torsion class in Q/Z, as its representative in
    [0, 1).

    Independent of the representative: v -> v + B u changes the pairing by
    an integer.
    """
    return meridian_pairing(pres, v, v) % 1


def reduce_class(pres: SurgeryPresentation, v: Sequence[int]) -> MeridianClass:
    """Canonical representative of [v] in Z^n / im(B)
    (`MatrixAnalysis.reduce`).

    It is v - R_1^T (y - x) for y = W_1^T v and x the point in the class of
    y of the Hermite box 0 <= x_i < h_ii of the core B' = W_1^T B W_1
    (`linalg.KernelSplit`), cut by solves through the one pass on B, so B'
    itself is never built.  A nonsingular B is its own core, and then the
    representative is x, zero wherever h_ii = 1.  No Smith form is built.
    """
    return analysis(pres.matrix).reduce(_check_length(pres, v))


def classes_equal(
    pres: SurgeryPresentation, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Equality of meridian classes modulo the column lattice of B."""
    return reduce_class(pres, v) == reduce_class(pres, w)


def torsion_chunks(pres: SurgeryPresentation, cap: int = DEFAULT_CAP) -> tuple[int, Iterator]:
    """(L, chunks): the torsion classes of H_1 in chunks of at most
    `linalg.CHUNK`, each (columns, residues) as `torsion_columns` gives them
    whole.  The order is compared with `cap`, and the box and the torsion
    form are built, before this returns, so a refusal comes before any
    chunk; the chunks are walked as they are read (`linalg.walk`)."""
    if integer(cap, "cap") < 0:
        raise InvalidInputError(f"cap must be nonnegative, got {cap}")
    data = analysis(pres.matrix)
    if (order := data.torsion_order) > cap:
        raise CapExceededError(order, cap)
    tf = data.torsion_form  # each class y of its box: -(y^T Q y) mod L and its lift
    return tf.L, walk(tf.factors, [[-x for x in row] for row in tf.Q], tf.L, A=tf.generators)


def torsion_columns(
    pres: SurgeryPresentation, cap: int = DEFAULT_CAP
) -> tuple[int, list[list[int]], list[int]]:
    """(L, columns, residues): the torsion classes of H_1 as the columns of
    their representatives, `columns[k]` holding the k-th coordinate of
    every class, and the residues r in [0, L) of their linking-form values
    r / L mod 1, both in the order of the box points of linalg.TorsionForm,
    the first factor varying slowest, so the output order is reproducible.
    They are the chunks of `torsion_chunks` joined: one walk of the box by
    finite differences (`linalg.walk`), with no tuple built per class.  The
    box is the Hermite box of the core B' lifted by R_1^T (B itself when
    nonsingular), so every representative is the one `reduce_class`
    returns.  The order is compared with `cap` before the box or the walk,
    singular B or not: it is read off the one pass and the split
    (`MatrixAnalysis.torsion_order`).
    """
    L, chunks = torsion_chunks(pres, cap)
    parts, residues = zip(*chunks)  # per chunk; there is always one
    return L, [list(chain(*c)) for c in zip(*parts)], list(chain(*residues))
