"""The degree-one configuration-space invariant of combed Q-balls.

Theta combines the Casson-Walker invariant (supplied by the caller, never
computed here) with p_1: Theta = 6*lambda + p_1/4.  Its variation under a
combing change is exactly the linking number driving the p_1 variation.
"""

from __future__ import annotations

from fractions import Fraction


def theta_invariant(casson_walker: Fraction | int, p1: Fraction | int) -> Fraction:
    """Theta = 6*lambda + p_1/4, from the Casson-Walker invariant lambda of
    the manifold and p_1 of the combing."""
    return 6 * Fraction(casson_walker) + Fraction(p1) / 4
