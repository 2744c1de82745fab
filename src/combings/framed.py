"""Framed links as exact linking data and their cobordism bookkeeping.

A framed link is modeled purely by the symmetric matrix of its pairwise and
self linking numbers, optionally tagged with the ambient homology class of
each component on a surgery presentation.  This is a complete model for the
invariants in scope: in an integral homology sphere the total self-linking
classifies framed links up to framed cobordism.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InvalidInputError, MissingClassesError, NonTorsionError, NotZSphereError, instance, integer,
    rational, sequence,
)
from .linalg import analysis
from .record import Record
from .surgery import MeridianClass, SurgeryPresentation, _check_length


class FramedLinkData(Record):
    """Linking data of a framed link.

    lambda_matrix holds self-linkings on the diagonal and pairwise linkings
    off it, each entry read by the rational rule (`errors.rational`) and
    kept as a Fraction.  When classes are given an ambient presentation is
    required, each class is checked once (`surgery._check_length`) and
    stored as the tuple that check returns, and every off-diagonal entry
    between torsion classes must agree with the meridian pairing modulo Z:
    the first pair (i, j), i < j, that does not is named.  The torsion tests and pairings
    are read off the ambient's memo entry (`linalg.analysis`), which a
    one-component link does not ask.
    """

    __slots__ = _fields = ("lambda_matrix", "classes", "ambient")

    def __init__(self, lambda_matrix: Iterable[Iterable[Fraction | int | str]],
                 classes: Iterable[Sequence[int]] | None = None,
                 ambient: SurgeryPresentation | None = None) -> None:
        lambda_matrix = tuple(
            tuple(rational(x, "linking entry") for x in sequence(row, "linking row"))
            for row in sequence(lambda_matrix, "linking rows"))
        n = len(lambda_matrix)
        if any(len(row) != n for row in lambda_matrix):
            raise InvalidInputError("linking data must be a square matrix")
        if tuple(zip(*lambda_matrix)) != tuple(map(tuple, lambda_matrix)):
            raise InvalidInputError("linking data must be symmetric")
        if classes is not None:
            if ambient is None:
                raise InvalidInputError("component classes need an ambient presentation")
            instance(ambient, SurgeryPresentation, "ambient")
            classes = sequence(classes, "classes")
            if len(classes) != n:
                raise InvalidInputError("one homology class per component is required")
            classes = tuple(_check_length(ambient, v) for v in classes)
            if n > 1:  # a lone component has no pair to check, so no torsion test either
                data = analysis(ambient.matrix)
                torsion = [k for k, v in enumerate(classes) if data.is_torsion(v)]
                # each pair of torsion classes, in order: lambda_ij must be
                # their meridian pairing, -pairing, modulo Z
                for i, j in itertools.combinations(torsion, 2):
                    lk = lambda_matrix[i][j] + data.pairing(classes[i], classes[j])
                    if lk.denominator != 1:
                        raise InvalidInputError(f"linking of components {i} and {j} is "
                                                "inconsistent with their homology classes")
        object.__setattr__(self, "lambda_matrix", lambda_matrix)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "ambient", ambient)

    @property
    def n_components(self) -> int:
        return len(self.lambda_matrix)


class FramedCobordismClass(NamedTuple):
    """Complete framed-cobordism data: summed homology class (reduced to its
    canonical representative) and total self-linking."""

    homology: MeridianClass
    total: Fraction


def total_self_linking(f: FramedLinkData) -> Fraction:
    """Sum of all entries of the linking matrix: lk(L, L_parallel)."""
    return sum((x for row in f.lambda_matrix for x in row), Fraction(0))


def band_sum(f: FramedLinkData, i: int, j: int) -> FramedLinkData:
    """Merge components i and j along a band.

    The merged component self-links by lam_ii + lam_jj + 2 lam_ij and links
    each remaining component by the sum of the two old linkings; homology
    classes add and the total self-linking is conserved.
    """
    n = f.n_components
    if not (0 <= integer(i, "i") < n and 0 <= integer(j, "j") < n):
        raise InvalidInputError("component index out of range")
    if i == j:
        raise InvalidInputError("band sum needs two distinct components")
    a, b = sorted((i, j))
    # the components merged into each new one: Lambda' = S^T Lambda S for
    # the n x (n-1) matrix S with column p the indicator of parts[p]
    parts = [(a, b) if k == a else (k,) for k in range(n) if k != b]
    lam = f.lambda_matrix
    new_matrix = tuple(
        tuple(sum(lam[p][q] for p in row for q in col) for col in parts) for row in parts
    )
    new_classes = None
    if f.classes is not None:
        new_classes = tuple(
            tuple(map(sum, zip(*(f.classes[k] for k in part)))) for part in parts
        )
    return FramedLinkData(new_matrix, new_classes, f.ambient)


def add_hopf(f: FramedLinkData, sign: int) -> FramedLinkData:
    """Append a split unknot realizing a gamma step.

    sign=+1 appends the negative Hopf pair (framing -1, one positive gamma
    step through the Pontrjagin construction); sign=-1 appends framing +1.
    The new component is null-homologous and unlinked from the others.
    """
    if integer(sign, "sign") not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    n = f.n_components
    framing = Fraction(-sign)
    new_matrix = tuple(row + (Fraction(0),) for row in f.lambda_matrix) + (
        (Fraction(0),) * n + (framing,),
    )
    new_classes = None
    if f.classes is not None:
        assert f.ambient is not None
        new_classes = f.classes + ((0,) * f.ambient.n,)
    return FramedLinkData(new_matrix, new_classes, f.ambient)


def _total_class(f: FramedLinkData) -> MeridianClass:
    """The sum of the component classes, of the ambient's length even for
    an empty link."""
    assert f.classes is not None and f.ambient is not None
    return tuple(sum(v[i] for v in f.classes) for i in range(f.ambient.n))


def pontrjagin_p1(p1_tau: Fraction | int | str, f: FramedLinkData) -> Fraction:
    """p_1 of the combing built from a parallelization with p_1 = p1_tau by
    the Pontrjagin construction on f: p1_tau - 4 lk(L, L_parallel), for a
    rational p1_tau (`errors.rational`).

    The link must be rationally null-homologous.
    """
    if f.classes is not None and not analysis(f.ambient.matrix).is_torsion(_total_class(f)):
        raise NonTorsionError("link homology class is not torsion")
    return rational(p1_tau, "p1_tau") - 4 * total_self_linking(f)


def framed_cobordant_zsphere(f: FramedLinkData, g: FramedLinkData) -> bool:
    """Framed cobordism in an integral homology sphere or ball.

    There the total self-linking is a complete invariant.  An ambient is a
    Z-sphere when B has no kernel (the signature's zero count) and the
    torsion order is 1, both read off the memo entry, so no box is built.
    """
    entries = [analysis(a.matrix) for a in (f.ambient, g.ambient) if a is not None]
    if any(e.signature.n_zero or e.torsion_order != 1 for e in entries):
        raise NotZSphereError("ambient presentation has nontrivial first homology")
    return total_self_linking(f) == total_self_linking(g)


def cobordism_class(f: FramedLinkData) -> FramedCobordismClass:
    """Framed-cobordism class: summed homology class and total self-linking."""
    if f.ambient is None or f.classes is None:
        raise MissingClassesError(
            "cobordism class needs an ambient presentation and component classes"
        )
    return FramedCobordismClass(
        homology=analysis(f.ambient.matrix).reduce(_total_class(f)),
        total=total_self_linking(f),
    )
