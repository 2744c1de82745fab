"""The degree-one configuration-space invariant of combed Q-balls.

Theta combines the Casson-Walker invariant (supplied by the caller, never
computed here) with p_1: Theta = 6*lambda + p_1/4.  Its variation under a
combing change is exactly the linking number driving the p_1 variation.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record


class ThetaInput(Record):
    """Casson-Walker invariant of the manifold and p_1 of the combing."""

    __slots__ = _fields = ("casson_walker", "p1")

    def __init__(self, casson_walker: Fraction, p1: Fraction) -> None:
        object.__setattr__(self, "casson_walker", Fraction(casson_walker))
        object.__setattr__(self, "p1", Fraction(p1))


def theta_invariant(data: ThetaInput) -> Fraction:
    """Theta = 6*lambda + p_1/4."""
    return 6 * data.casson_walker + data.p1 / 4

