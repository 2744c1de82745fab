"""The public value types: field names, equality, hashing, immutability,
repr and validation.

The plain result types are `NamedTuple`s.  The types that validate or
normalise on construction are slotted records (`combings.record.Record`),
which compare by type and fields and so never equal a plain tuple.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from combings import (
    CombingSpec,
    DimensionMismatchError,
    EulerClassInfo,
    FramedCobordismClass,
    FramedLinkData,
    HomologySummary,
    IntMatrix,
    NotCharacteristicError,
    P1ImageReport,
    P1Value,
    SurgeryPresentation,
    signature,
    theta_invariant,
)
from combings.document import CombingDoc, Document, FramedDoc
from combings.errors import InvalidInputError
from combings.linalg import IntegerForm, SnfResult, TorsionForm
from combings.verify import CheckResult

M = IntMatrix(rows=2, cols=2, entries=(2, 1, 1, 2))
PRES = SurgeryPresentation(matrix=M)
LENS = SurgeryPresentation.from_rows([[4]])
HALF = Fraction(1, 2)

# (type, keyword arguments): each argument is already in normal form, so the
# fields read back as given
SLOTTED = [
    (IntMatrix, dict(rows=2, cols=3, entries=(1, 2, 3, 4, 5, 6))),
    (SurgeryPresentation, dict(matrix=M)),
    (CombingSpec, dict(presentation=PRES, c=(0, 0), gamma_offset=3)),
    (P1Value, dict(value=Fraction(-7, 3))),
    (FramedLinkData, dict(lambda_matrix=((HALF, Fraction(1)), (Fraction(1), -HALF)), classes=None,
                          ambient=None)),
    (
        FramedLinkData,
        dict(lambda_matrix=((Fraction(-1, 4),),), classes=((1,),), ambient=LENS),
    ),
]
PLAIN = [
    (SnfResult, dict(U=M, D=M, V=M)),
    (HomologySummary, dict(invariant_factors=(3,), betti_1=1, dim_h1_mod2=1,
                           torsion_order=3, kernel_basis=((1, -1),))),
    (IntegerForm, dict(G=((2, -1), (-1, 2)), L=3)),
    (TorsionForm, dict(factors=(3,), generators=((0,), (1,)), Q=((2,),), L=3)),
    (EulerClassInfo, dict(class_vector=(0, 0), is_torsion=True, is_zero=True)),
    (P1ImageReport, dict(denominator=3, formula_residues=frozenset({1}),
                         enumeration_residues=frozenset({1}), is_subset=True,
                         is_equal=True)),
    (FramedCobordismClass, dict(homology=(1, 0), total=HALF)),
    (CombingDoc, dict(c=(0, 0), gamma=1)),
    (FramedDoc, dict(lambda_matrix=((HALF,),), classes=None)),
    (Document, dict(linking_matrix=((2,),), combing=CombingDoc((0,), 0), combing2=None,
                    meridian=(1,), framed=None, casson_walker=HALF)),
    (CheckResult, dict(name="gamma-law", cases=40, failures=0, error=None)),
]
ALL = SLOTTED + PLAIN


def _ids(cases):
    return [cls.__name__ for cls, _ in cases]


@pytest.mark.parametrize("cls, kwargs", ALL, ids=_ids(ALL))
class TestEveryType:
    def test_keyword_construction_reads_back(self, cls, kwargs):
        x = cls(**kwargs)
        assert all(getattr(x, name) == value for name, value in kwargs.items())

    def test_equal_value_and_hash(self, cls, kwargs):
        x, y = cls(**kwargs), cls(*kwargs.values())
        assert x == y and not x != y and x is not y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_assignment_and_deletion_refused(self, cls, kwargs):
        x = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) == kwargs[name]
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_repr_names_the_fields(self, cls, kwargs):
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"

    def test_copy_and_pickle_round_trip(self, cls, kwargs):
        x = cls(**kwargs)
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("cls, kwargs", SLOTTED, ids=_ids(SLOTTED))
class TestSlottedRecords:
    def test_never_equal_to_a_tuple(self, cls, kwargs):
        x, values = cls(**kwargs), tuple(kwargs.values())
        assert x != values and values != x and not x == values

    def test_unequal_to_other_objects(self, cls, kwargs):
        x = cls(**kwargs)
        assert x != object() and x != None  # noqa: E711
        assert all(x != cls2(**kw) for cls2, kw in SLOTTED if kw is not kwargs)

    def test_no_instance_dict(self, cls, kwargs):
        assert not hasattr(cls(**kwargs), "__dict__")


def test_a_changed_field_breaks_equality():
    assert P1Value(1) != P1Value(2)
    assert CombingSpec(PRES, (0, 0), 0) != CombingSpec(PRES, (0, 0), 1)
    assert PRES != SurgeryPresentation.from_rows([[2, 1], [1, 4]])


def test_plain_result_types_are_tuples():
    for cls, kwargs in PLAIN:
        assert cls(**kwargs) == tuple(kwargs.values())
        assert cls._fields == tuple(kwargs)  # P1ImageReport has no `box`


class TestDefaults:
    def test_combing_spec_offset(self):
        assert CombingSpec(PRES, (0, 0)).gamma_offset == 0

    def test_framed_link_data(self):
        f = FramedLinkData(((HALF,),))
        assert (f.classes, f.ambient) == (None, None)

    def test_document(self):
        doc = Document(((2,),))
        assert (doc.combing, doc.combing2, doc.meridian, doc.framed, doc.casson_walker) == (
            None,
        ) * 5


class TestIntMatrix:
    def test_entries_stored_as_tuple(self):
        m = IntMatrix(2, 2, [2, 1, 1, 2])
        assert m.entries == (2, 1, 1, 2) and type(m.entries) is tuple
        assert m == M and hash(m) == hash(M)

    def test_list_entries_reach_the_memo_and_the_presentation(self):
        m = IntMatrix(2, 2, [2, 1, 1, 2])
        assert signature(m) == (2, 0, 0)
        assert SurgeryPresentation(m) == PRES

    def test_shape_takes_part_in_equality(self):
        assert IntMatrix(2, 0, ()) != IntMatrix(3, 0, ())
        assert IntMatrix(1, 2, (1, 2)) != IntMatrix(2, 1, (1, 2))
        assert M != IntMatrix(2, 2, (2, 1, 1, 3))

    @pytest.mark.parametrize("args, message", [
        ((-1, 0, ()), "matrix dimensions must be nonnegative"),
        ((0, -1, ()), "matrix dimensions must be nonnegative"),
        ((2, 2, (1, 2, 3)), "entry count must equal rows * cols"),
        ((1, 2, (1, 2.0)), "matrix entries must be integers"),
        ((1, 1, (Fraction(1),)), "matrix entries must be integers"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError) as info:
            IntMatrix(*args)
        assert str(info.value) == message

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match=r"^rows must all have the same length$"):
            IntMatrix.from_rows([[1, 2], [3]])


class TestSurgeryPresentation:
    @pytest.mark.parametrize("matrix, message", [
        (IntMatrix(1, 2, (1, 2)), "linking matrix must be square"),
        (IntMatrix(2, 2, (1, 2, 3, 4)), "linking matrix must be symmetric"),
    ])
    def test_validation(self, matrix, message):
        with pytest.raises(ValueError) as info:
            SurgeryPresentation(matrix)
        assert str(info.value) == message


class TestNormalisingTypes:
    def test_p1_value_and_theta_input(self):
        assert type(P1Value(3).value) is Fraction and P1Value(3) == P1Value(Fraction(3))
        # theta_invariant takes its two rationals as Fraction() does
        t = theta_invariant(casson_walker=1, p1="1/2")
        assert type(t) is Fraction and t == 6 + Fraction(1, 8)
        assert type(theta_invariant(0, -2)) is Fraction

    def test_combing_spec(self):
        x = CombingSpec(PRES, [0, 0])
        assert type(x.c) is tuple and x == CombingSpec(PRES, (0, 0), 0)
        with pytest.raises(NotCharacteristicError) as info:
            CombingSpec(PRES, (0, 1))
        assert str(info.value) == "index 1: coefficient parity differs from the framing parity"
        with pytest.raises(DimensionMismatchError) as info:
            CombingSpec(PRES, (0,))
        assert str(info.value) == "class vector has length 1, presentation has 2 components"


class TestFramedLinkData:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(lambda_matrix=((1, 0),)), "linking data must be a square matrix"),
        (dict(lambda_matrix=((1, 0), (1, 1))), "linking data must be symmetric"),
        (dict(lambda_matrix=((1,),), classes=((1,),)),
         "component classes need an ambient presentation"),
        (dict(lambda_matrix=((1,),), classes=((1,), (0,)), ambient=LENS),
         "one homology class per component is required"),
        (dict(lambda_matrix=((1,),), classes=((1, 0),), ambient=LENS),
         "class vector has length 2, presentation has 1 components"),
        (dict(lambda_matrix=((0, 0), (0, 0)), classes=((1,), (1,)), ambient=LENS),
         "linking of components 0 and 1 is inconsistent with their homology classes"),
    ])
    def test_validation(self, kwargs, message):
        # a class of the wrong length is a DimensionMismatchError, as in
        # every other vector check; the other refusals are InvalidInputErrors
        with pytest.raises((InvalidInputError, DimensionMismatchError)) as info:
            FramedLinkData(**kwargs)
        assert str(info.value) == message

    def test_consistent_classes_accepted(self):
        lk = Fraction(-1, 4)  # the meridian pairing of L(4, 1)
        f = FramedLinkData(((0, lk), (lk, 0)), ((1,), (1,)), LENS)
        assert f.n_components == 2
