"""The degree-one configuration-space invariant of combed Q-balls.

Theta combines the Casson-Walker invariant (supplied by the caller, never
computed here) with p_1: Theta = 6*lambda + p_1/4.  Its variation under a
combing change is exactly the linking number driving the p_1 variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ThetaInput:
    """Casson-Walker invariant of the manifold and p_1 of the combing."""

    casson_walker: Fraction
    p1: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "casson_walker", Fraction(self.casson_walker))
        object.__setattr__(self, "p1", Fraction(self.p1))


def theta_invariant(data: ThetaInput) -> Fraction:
    """Theta = 6*lambda + p_1/4."""
    return 6 * data.casson_walker + data.p1 / 4

