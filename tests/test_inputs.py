"""The input boundary of the library: one integer rule, one rational rule,
one sequence rule and typed refusals.

An integer is an `int` that is not a `bool` (`combings.errors.integers`), as
the document parser has it.  Each entry point below is called once with an
input it takes, and then with that input replaced by a bool, a float, a
`Fraction`, a string or a value of the wrong length.  Each stand-in reads as
1 or compares equal to it, so a check by value alone would take it.  A
stand-in of the wrong type must raise InvalidInputError; one of the wrong
length, InvalidInputError or a DomainError (DimensionMismatch); no call may
raise any other type or answer.

A rational is an integer, a `Fraction` or a "p/q" string of the document's
syntax (`combings.errors.rational`); a vector or a matrix must be a sequence
(`combings.errors.sequence`), so a bare scalar in its place is refused as
InvalidInputError too, not as a TypeError from `len()` or iteration.  A case
labelled `FramedLinkData.from_rows` calls the constructor on a list of rows.
"""

from fractions import Fraction

import pytest

from combings import (
    CombingSpec,
    FramedLinkData,
    IntMatrix,
    P1Value,
    SurgeryPresentation,
    add_hopf,
    apply_modification,
    band_sum,
    gamma,
    is_torsion_class,
    linking_form,
    meridian_pairing,
    p1,
    p1_image,
    pontrjagin_p1,
    reduce_class,
    spin_c_equal,
    stabilize,
    theta_g,
    theta_invariant,
)
from combings.errors import DomainError, InvalidInputError
from combings.surgery import torsion_columns

B = SurgeryPresentation.from_rows([[1]])  # S^3; c = (1,) is characteristic
X = CombingSpec(B, (1,))
TWO = FramedLinkData([[0, 0], [0, 0]])

# (entry point.argument, the call with that argument x, an x it takes)
SCALARS = [
    ("IntMatrix.rows", lambda x: IntMatrix(x, 1, (1,)), 1),
    ("IntMatrix.cols", lambda x: IntMatrix(1, x, (1,)), 1),
    ("CombingSpec.gamma_offset", lambda x: CombingSpec(B, (1,), x), 1),
    ("p1.gamma_offset", lambda x: p1(CombingSpec(B, (1,), x)), 1),
    ("gamma.t", lambda x: gamma(X, x), 1),
    ("band_sum.i", lambda x: band_sum(TWO, x, 0), 1),
    ("band_sum.j", lambda x: band_sum(TWO, 0, x), 1),
    ("add_hopf.sign", lambda x: add_hopf(TWO, x), 1),
    ("stabilize.sign", lambda x: stabilize(X, x, 1), 1),
    ("stabilize.c0", lambda x: stabilize(X, 1, x), 1),
    ("p1_image.cap", lambda x: p1_image(B, cap=x, box=0), 1),
    ("p1_image.box", lambda x: p1_image(B, box=x), 1),
    ("torsion_columns.cap", lambda x: torsion_columns(B, cap=x), 1),
    ("apply_modification.eta",
     lambda x: apply_modification(0, "D", eta=x, lk_euler=0, lk_par=0), 1),
    ("apply_modification.r", lambda x: apply_modification(0, "r-twist", eta=1, r=x), 1),
    ("apply_modification.k", lambda x: apply_modification(0, "half-twist", k=x), 1),
]
# the same for an integer vector, the one-entry vector (1,) taken
VECTORS = [
    ("IntMatrix.entries", lambda v: IntMatrix(1, 1, v)),
    ("SurgeryPresentation.from_rows", lambda v: SurgeryPresentation.from_rows([v])),
    ("CombingSpec.c", lambda v: CombingSpec(B, v)),
    ("p1.c", lambda v: p1(CombingSpec(B, v))),
    ("theta_g.c", lambda v: theta_g(B, v)),
    ("spin_c_equal.c", lambda v: spin_c_equal(B, v, (1,))),
    ("spin_c_equal.c_other", lambda v: spin_c_equal(B, (1,), v)),
    ("meridian_pairing.v", lambda v: meridian_pairing(B, v, (1,))),
    ("meridian_pairing.w", lambda v: meridian_pairing(B, (1,), v)),
    ("linking_form.v", lambda v: linking_form(B, v)),
    ("reduce_class.v", lambda v: reduce_class(B, v)),
    ("is_torsion_class.v", lambda v: is_torsion_class(B, v)),
    ("FramedLinkData.from_rows.classes", lambda v: FramedLinkData([[0]], [v], B)),
]
CASES = SCALARS + [(name, call, (1,)) for name, call in VECTORS]
STAND_INS = {"bool": True, "float": 1.0, "Fraction": Fraction(1), "string": "1"}


def _in_place_of(good, stand_in):
    """The taken input `good` with its one integer replaced by `stand_in`."""
    return (stand_in,) if isinstance(good, tuple) else stand_in


@pytest.mark.parametrize("kind", STAND_INS)
@pytest.mark.parametrize("name, call, good", CASES, ids=[case[0] for case in CASES])
def test_wrong_type_is_invalid_input(name, call, good, kind):
    call(good)
    with pytest.raises(InvalidInputError):
        call(_in_place_of(good, STAND_INS[kind]))


@pytest.mark.parametrize("name, call, good", CASES, ids=[case[0] for case in CASES])
def test_wrong_length_is_typed(name, call, good):
    call(good)
    wrong = good + (1,) if isinstance(good, tuple) else (good, good)
    with pytest.raises((DomainError, InvalidInputError)):
        call(wrong)


# (entry point.argument, the call with that rational argument x, the name
# its refusal gives the argument)
RATIONALS = [
    ("apply_modification.p", lambda x: apply_modification(x, "global-Z", lk_par=0), "p"),
    ("apply_modification.lk_euler",
     lambda x: apply_modification(0, "D", eta=1, lk_euler=x, lk_par=0), "lk_euler"),
    ("apply_modification.lk_par",
     lambda x: apply_modification(0, "global-Z", lk_par=x), "lk_par"),
    ("FramedLinkData.from_rows.entry", lambda x: FramedLinkData([[x]]),
     "linking entry"),
    ("FramedLinkData.entry", lambda x: FramedLinkData(((x,),)), "linking entry"),
    ("P1Value.value", P1Value, "value"),
    ("pontrjagin_p1.p1_tau", lambda x: pontrjagin_p1(x, TWO), "p1_tau"),
    ("theta_invariant.casson_walker", lambda x: theta_invariant(x, 0), "casson_walker"),
    ("theta_invariant.p1", lambda x: theta_invariant(0, x), "p1"),
]
RATIONAL_NAMES = [case[0] for case in RATIONALS]
TAKEN = {"int": 1, "Fraction": Fraction(1, 2), "p/q": "1/2", "negative p/q": "-1/2",
         "p": "3"}
# None is left out: an lk_euler or lk_par of None is an argument not given
REFUSED = {"bool": True, "float": 0.5, "nan": float("nan"), "word": "x", "decimal": "0.5",
           "zero q": "1/0", "spaced": " 1/2", "list": [1]}


@pytest.mark.parametrize("kind", TAKEN)
@pytest.mark.parametrize("name, call, argument", RATIONALS, ids=RATIONAL_NAMES)
def test_rational_is_taken(name, call, argument, kind):
    call(TAKEN[kind])


@pytest.mark.parametrize("kind", REFUSED)
@pytest.mark.parametrize("name, call, argument", RATIONALS, ids=RATIONAL_NAMES)
def test_non_rational_is_invalid_input(name, call, argument, kind):
    with pytest.raises(InvalidInputError, match=f"^{argument} must be an integer, a Fraction "):
        call(REFUSED[kind])


@pytest.mark.parametrize("name, call, argument", RATIONALS, ids=RATIONAL_NAMES)
def test_rational_past_the_digit_limit_is_invalid_input(name, call, argument):
    with pytest.raises(InvalidInputError, match="digits"):
        call("1" * 5000)


def test_rational_is_read_exactly():
    """The rule keeps the exact value: "1/3" is a third, and an integer
    of any size keeps every digit."""
    got = apply_modification("1/3", "D", eta=-1, lk_euler="-1/6", lk_par=Fraction(1, 12))
    assert got.value == Fraction(1, 3) + 4 * (Fraction(1, 6) - Fraction(1, 12))
    assert FramedLinkData([[10 ** 40]]).lambda_matrix == ((Fraction(10 ** 40),),)


# (entry point.argument, the call with that vector or matrix argument x): a
# scalar in its place is not a sequence
NON_SEQUENCES = [
    ("IntMatrix.entries", lambda x: IntMatrix(1, 1, x)),
    ("SurgeryPresentation.from_rows", SurgeryPresentation.from_rows),
    ("SurgeryPresentation.from_rows.row", lambda x: SurgeryPresentation.from_rows([x])),
    ("theta_g.c", lambda x: theta_g(B, x)),
    ("CombingSpec.c", lambda x: CombingSpec(B, x)),
    ("spin_c_equal.c_other", lambda x: spin_c_equal(B, (1,), x)),
    ("meridian_pairing.w", lambda x: meridian_pairing(B, (1,), x)),
    ("reduce_class.v", lambda x: reduce_class(B, x)),
    ("FramedLinkData.from_rows", FramedLinkData),
    ("FramedLinkData.from_rows.row", lambda x: FramedLinkData([x])),
    ("FramedLinkData.from_rows.classes", lambda x: FramedLinkData([[0]], x, B)),
    ("FramedLinkData.from_rows.class", lambda x: FramedLinkData([[0]], [x], B)),
]
SCALAR_STAND_INS = {"bool": True, "float": 1.5, "int": 1}


@pytest.mark.parametrize("kind", SCALAR_STAND_INS)
@pytest.mark.parametrize("name, call", NON_SEQUENCES, ids=[case[0] for case in NON_SEQUENCES])
def test_non_sequence_is_invalid_input(name, call, kind):
    with pytest.raises(InvalidInputError, match=" must be a sequence, got "):
        call(SCALAR_STAND_INS[kind])


def test_framed_constructor_reads_its_entries():
    """The constructor reads each entry by the rational rule, on rows of
    tuples as on lists: a float or a word is refused, not kept or left to
    fail later."""
    for entry in (1.5, "x"):
        with pytest.raises(InvalidInputError, match="^linking entry must be an integer, a "):
            FramedLinkData(((entry,),))
    assert FramedLinkData((("1/2",),)).lambda_matrix == ((Fraction(1, 2),),)


# (record constructor, the call with x where a record is due, its argument)
RECORDS = [
    ("SurgeryPresentation", SurgeryPresentation, "matrix"),
    ("CombingSpec", lambda x: CombingSpec(x, (1,)), "presentation"),
    ("FramedLinkData.ambient", lambda x: FramedLinkData([[0]], [(1,)], x), "ambient"),
]


@pytest.mark.parametrize("name, call, argument", RECORDS, ids=[case[0] for case in RECORDS])
def test_non_record_is_invalid_input(name, call, argument):
    """A plain list of rows where a record is due is refused by name, not
    left to fail on a missing attribute."""
    with pytest.raises(InvalidInputError, match=f"^{argument} must be of type "):
        call([[1]])
