"""The degree-one configuration-space invariant of combed Q-balls.

Theta combines the Casson-Walker invariant (supplied by the caller, never
computed here) with p_1: Theta = 6*lambda + p_1/4.  Its variation under a
combing change is exactly the linking number driving the p_1 variation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import rational


def theta_invariant(casson_walker: Fraction | int | str, p1: Fraction | int | str) -> Fraction:
    """Theta = 6*lambda + p_1/4, from the Casson-Walker invariant lambda of
    the manifold and p_1 of the combing, both rationals (`errors.rational`)."""
    return 6 * rational(casson_walker, "casson_walker") + rational(p1, "p1") / 4
