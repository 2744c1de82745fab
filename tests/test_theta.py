"""Theta combiner: 6*lambda + p_1/4 and its variation law."""

from fractions import Fraction

from combings.theta import theta_invariant


def test_s3_reference():
    assert theta_invariant(Fraction(0), Fraction(-2)) == Fraction(-1, 2)


def test_linearity():
    assert theta_invariant(Fraction(0), Fraction(2)) == Fraction(1, 2)


def test_lambda_slope():
    assert theta_invariant(Fraction(1, 12), Fraction(0)) == Fraction(1, 2)


def test_variation_matches_p1_shift():
    grid = [Fraction(0), Fraction(1, 12), Fraction(-3, 2), Fraction(7)]
    deltas = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(5, 4)]
    p1s = [Fraction(-2), Fraction(0), Fraction(13, 3)]
    for lam in grid:
        for p in p1s:
            for d in deltas:
                assert theta_invariant(lam, p + 4 * d) - theta_invariant(lam, p) == d


def test_affine_slopes():
    base = theta_invariant(Fraction(2, 3), Fraction(5))
    assert theta_invariant(Fraction(2, 3) + 1, Fraction(5)) - base == 6
    assert theta_invariant(Fraction(2, 3), Fraction(6)) - base == Fraction(1, 4)
