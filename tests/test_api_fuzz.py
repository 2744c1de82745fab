"""Property test of the package's callables: every name in `combings.__all__`
that can be called, given well-typed records where its annotation asks for
one and any small value elsewhere.

Each call returns, or raises DomainError, InvalidInputError or ParseError;
a TypeError, a bare ValueError or any other exception is a hole in the input
boundary.  The values are integers in [-3, 3] and +/-2^70, bools, floats,
NaN, Fractions, strings ("1/2", "x", the modification kinds and one past the
int/str digit limit), None, and lists of these of any length up to 3, so of
the right length for the 2 x 2 presentations below and of wrong ones.  The
small integers keep every walk small.  The exception classes are left out,
as calling one only builds an exception, and so are wrong types where a
record is due.  The profile is derandomized, so every run tries the same
inputs.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combings
from combings import CombingSpec, FramedLinkData, SurgeryPresentation, reference_parallelization
from combings.combing import MODIFICATION_KINDS
from combings.errors import DomainError, InvalidInputError, ParseError

NONSINGULAR = SurgeryPresentation.from_rows([[2, 1], [1, 2]])
SINGULAR = SurgeryPresentation.from_rows([[2, 2], [2, 2]])
# the records a parameter takes, by the first type of its annotation
RECORDS = {
    "SurgeryPresentation": [NONSINGULAR, SINGULAR],
    "IntMatrix": [NONSINGULAR.matrix, SINGULAR.matrix],
    "CombingSpec": [reference_parallelization(NONSINGULAR), CombingSpec(SINGULAR, (2, 0), 1)],
    "FramedLinkData": [FramedLinkData([[1, "1/2"], ["1/2", 0]]),
                       FramedLinkData([["1/3"]], [(1, 0)], NONSINGULAR)],
}
SCALARS = st.integers(-3, 3) | st.sampled_from([
    2 ** 70, -2 ** 70, True, False, 0.5, float("nan"), Fraction(1, 2), Fraction(-3),
    "1/2", "x", *MODIFICATION_KINDS, "1" * 5000, None,
])
# integer vectors of length 1 to 3 are drawn often, so that calls go past
# their checks of type and length
VALUES = (SCALARS | st.lists(st.integers(-3, 3), min_size=1, max_size=3)
          | st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6))
CALLABLES = [name for name in combings.__all__ if callable(value := getattr(combings, name))
             and not (isinstance(value, type) and issubclass(value, Exception))]


def _values(annotation):
    """The records of the annotation's first type, and None where it admits
    None, or any value."""
    kinds = str(annotation).split(" | ")
    if kinds[0] not in RECORDS:
        return VALUES
    return st.sampled_from(RECORDS[kinds[0]] + [None] * ("None" in kinds))


@pytest.mark.parametrize("name", CALLABLES)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_call_returns_or_raises_a_library_error(name, data):
    """Every argument is passed by name, one with a default only at times."""
    function = getattr(combings, name)
    arguments = {
        parameter.name: data.draw(_values(parameter.annotation), label=parameter.name)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.default is parameter.empty or data.draw(st.booleans())
    }
    try:
        function(**arguments)
    except (DomainError, InvalidInputError, ParseError):
        pass
