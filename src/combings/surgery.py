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
from typing import Iterable, Sequence

from .errors import CapExceededError, DimensionMismatchError, NonTorsionError
from .linalg import (
    HomologySummary,
    IntMatrix,
    Vector,
    analysis,
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
        if matrix.rows != matrix.cols:
            raise ValueError("linking matrix must be square")
        if not matrix.is_symmetric():
            raise ValueError("linking matrix must be symmetric")
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
    if len(v) != pres.n:
        raise DimensionMismatchError(
            f"class vector has length {len(v)}, presentation has {pres.n} components"
        )
    return tuple(v)


def is_torsion_class(pres: SurgeryPresentation, v: Sequence[int]) -> bool:
    """True when v lies in the rational column space of B
    (`MatrixAnalysis.is_torsion`); only a singular B builds the integer form."""
    return analysis(pres.matrix).is_torsion(_check_length(pres, v))


def meridian_pairing(
    pres: SurgeryPresentation, v: Sequence[int], w: Sequence[int]
) -> Fraction:
    """Linking number of the torsion meridian classes v and w.

    Computed as -v^T x for the rational solution x = G w / L of B x = w
    (see linalg.IntegerForm); kernel components pair to zero against the
    torsion class v, so the value does not depend on the solution and is
    symmetric in v and w.  On a fresh B the form solves the distinct
    vectors among (v, w) alone through the pass (`MatrixAnalysis.form_on`).
    """
    v = _check_length(pres, v)
    w = _check_length(pres, w)
    form, coords = analysis(pres.matrix).form_on((v,) if v == w else (v, w))
    x, y = coords[0], coords[-1]
    if not form.is_torsion(x):
        raise NonTorsionError("first class is not torsion")
    if not form.is_torsion(y):
        raise NonTorsionError("second class is not torsion")
    return Fraction(-form.pair(x, y), form.L)


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
    (`linalg.KernelSplit`).  A nonsingular B is its own core, and then the
    representative is x, zero wherever h_ii = 1.  No Smith form is built.
    """
    return analysis(pres.matrix).reduce(_check_length(pres, v))


def classes_equal(
    pres: SurgeryPresentation, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Equality of meridian classes modulo the column lattice of B."""
    return reduce_class(pres, v) == reduce_class(pres, w)


def torsion_residues(
    pres: SurgeryPresentation, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[tuple[MeridianClass, int], ...]]:
    """(L, ((rep, r), ...)): one representative per torsion class of H_1 with
    the residue r in [0, L) of its linking-form value r / L mod 1.

    The representatives lift the box points of linalg.TorsionForm, the first
    factor varying slowest, so the output order is reproducible; one walk of
    the box by finite differences (`TorsionForm.table`) gives them all.  The
    box is the Hermite box of the core B' lifted by R_1^T (B itself when
    nonsingular), so every representative is the one `reduce_class` returns.
    The order is compared with `cap` before the walk, and for a nonsingular
    B before the box (`MatrixAnalysis.torsion_order`).
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    data = analysis(pres.matrix)
    order = data.torsion_order
    if order > cap:
        raise CapExceededError(order, cap)
    tf = data.torsion_form
    return tf.L, tuple(zip(*tf.table(lifts=True)))

