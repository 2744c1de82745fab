"""Document parsing: the input format and its validation messages."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combings.document import (
    CombingDoc,
    Document,
    FramedDoc,
    format_rational,
    parse_document,
    parse_rational,
)
from combings.errors import ParseError


class TestRationals:
    def test_parse(self):
        assert parse_rational("-4/3") == Fraction(-4, 3)
        assert parse_rational("2") == Fraction(2)

    def test_canonical_format(self):
        assert format_rational(Fraction(-4, 3)) == "-4/3"
        assert format_rational(Fraction(4, 2)) == "2"

    def test_rejects_garbage(self):
        for bad in ("1/0", "1.5", "a", "", "1/-2", None, 2):
            with pytest.raises(ParseError):
                parse_rational(bad)


class TestParse:
    def test_minimal(self):
        doc = parse_document('{"linking_matrix": []}')
        assert doc.linking_matrix == ()

    def test_full(self):
        text = """
        {"linking_matrix": [[2]],
         "combing": {"c": [0], "gamma": 1},
         "combing2": {"c": [4], "gamma": -1},
         "meridian": [1],
         "framed": {"lambda_matrix": [["-1/2"]], "classes": [[1]]},
         "lambda": "1/12"}
        """
        doc = parse_document(text)
        assert doc.combing == CombingDoc(c=(0,), gamma=1)
        assert doc.combing2 == CombingDoc(c=(4,), gamma=-1)
        assert doc.meridian == (1,)
        assert doc.framed == FramedDoc(
            lambda_matrix=((Fraction(-1, 2),),), classes=((1,),)
        )
        assert doc.casson_walker == Fraction(1, 12)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_document("not json")

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [], "surprise": 1}')

    def test_missing_matrix(self):
        with pytest.raises(ParseError):
            parse_document('{"combing": {"c": [], "gamma": 0}}')

    def test_nonsquare(self):
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [[1, 2]]}')

    def test_nonsymmetric(self):
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [[1, 2], [3, 4]]}')

    def test_non_integer_entries(self):
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [[1.5]]}')
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [[true]]}')

    def test_bad_combing(self):
        with pytest.raises(ParseError):
            parse_document('{"linking_matrix": [], "combing": {"c": []}}')
        with pytest.raises(ParseError):
            parse_document(
                '{"linking_matrix": [], "combing": {"c": [], "gamma": 0, "x": 1}}'
            )

    def test_bad_framed_rational(self):
        with pytest.raises(ParseError):
            parse_document(
                '{"linking_matrix": [], "framed": {"lambda_matrix": [[0.5]]}}'
            )


# (document, the exact ParseError text), as the validation has always
# written them: a float, bool, string and null entry in each integer list,
# the first bad entry of several named, then ragged, non-square, asymmetric
# and non-list input, the non-list, ragged and first bad rows of
# framed.lambda_matrix, and a framed entry that is no object, has an unknown
# key or lacks lambda_matrix
VALIDATION_MESSAGES = [
    ('{"linking_matrix": [[1.5]]}',
     'linking_matrix must be an integer, got 1.5'),
    ('{"linking_matrix": [[2, 1], [1, 1.5]]}',
     'linking_matrix must be an integer, got 1.5'),
    ('{"linking_matrix": [[2]], "combing": {"c": [1.5], "gamma": 0}}',
     'combing.c must be an integer, got 1.5'),
    ('{"linking_matrix": [[2]], "combing": {"c": [0, 1.5], "gamma": 0}}',
     'combing.c must be an integer, got 1.5'),
    ('{"linking_matrix": [[2]], "meridian": [1.5]}',
     'meridian must be an integer, got 1.5'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1.5]]}}',
     'framed.classes must be an integer, got 1.5'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1], [1.5]]}}',
     'framed.classes must be an integer, got 1.5'),
    ('{"linking_matrix": [[true]]}',
     'linking_matrix must be an integer, got True'),
    ('{"linking_matrix": [[2, 1], [1, true]]}',
     'linking_matrix must be an integer, got True'),
    ('{"linking_matrix": [[2]], "combing": {"c": [true], "gamma": 0}}',
     'combing.c must be an integer, got True'),
    ('{"linking_matrix": [[2]], "combing": {"c": [0, true], "gamma": 0}}',
     'combing.c must be an integer, got True'),
    ('{"linking_matrix": [[2]], "meridian": [true]}',
     'meridian must be an integer, got True'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[true]]}}',
     'framed.classes must be an integer, got True'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1], [true]]}}',
     'framed.classes must be an integer, got True'),
    ('{"linking_matrix": [["1"]]}',
     "linking_matrix must be an integer, got '1'"),
    ('{"linking_matrix": [[2, 1], [1, "1"]]}',
     "linking_matrix must be an integer, got '1'"),
    ('{"linking_matrix": [[2]], "combing": {"c": ["1"], "gamma": 0}}',
     "combing.c must be an integer, got '1'"),
    ('{"linking_matrix": [[2]], "combing": {"c": [0, "1"], "gamma": 0}}',
     "combing.c must be an integer, got '1'"),
    ('{"linking_matrix": [[2]], "meridian": ["1"]}',
     "meridian must be an integer, got '1'"),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [["1"]]}}',
     "framed.classes must be an integer, got '1'"),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1], ["1"]]}}',
     "framed.classes must be an integer, got '1'"),
    ('{"linking_matrix": [[null]]}',
     'linking_matrix must be an integer, got None'),
    ('{"linking_matrix": [[2, 1], [1, null]]}',
     'linking_matrix must be an integer, got None'),
    ('{"linking_matrix": [[2]], "combing": {"c": [null], "gamma": 0}}',
     'combing.c must be an integer, got None'),
    ('{"linking_matrix": [[2]], "combing": {"c": [0, null], "gamma": 0}}',
     'combing.c must be an integer, got None'),
    ('{"linking_matrix": [[2]], "meridian": [null]}',
     'meridian must be an integer, got None'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[null]]}}',
     'framed.classes must be an integer, got None'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1], [null]]}}',
     'framed.classes must be an integer, got None'),
    ('{"linking_matrix": [[1, 2], [3]]}',
     'linking_matrix has ragged rows'),
    ('{"linking_matrix": [[1], [2, 3]]}',
     'linking_matrix has ragged rows'),
    ('{"linking_matrix": [[1, 2]]}',
     'linking_matrix must be square'),
    ('{"linking_matrix": [[1], [2]]}',
     'linking_matrix must be square'),
    ('{"linking_matrix": [[1, 2, 3], [2, 4, 5]]}',
     'linking_matrix must be square'),
    ('{"linking_matrix": [[1, 2], [3, 4]]}',
     'linking_matrix must be symmetric'),
    ('{"linking_matrix": [[1, 2, 3], [2, 4, 5], [3, 6, 7]]}',
     'linking_matrix must be symmetric'),
    ('{"linking_matrix": [[1, 2, 3], [2, 4, 5], [4, 5, 6]]}',
     'linking_matrix must be symmetric'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "classes": [[1], [1, 2]]}}',
     'framed.classes has ragged rows'),
    ('{"linking_matrix": [[2]], "combing": {"c": 1, "gamma": 0}}',
     'combing.c must be a list of integers'),
    ('{"linking_matrix": [[2]], "meridian": 1}',
     'meridian must be a list of integers'),
    ('{"linking_matrix": [1]}',
     'linking_matrix must be a list of integers'),
    ('{"linking_matrix": [[1, 2.5, true], [2, null, "x"], [1]]}',
     'linking_matrix must be an integer, got 2.5'),
    ('{"linking_matrix": [[2]], "meridian": [1, 2, true, 1.5]}',
     'meridian must be an integer, got True'),
    ('{"linking_matrix": 1}',
     'linking_matrix must be a list of rows'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": "1"}}',
     'framed.lambda_matrix must be a list of rows'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"], "1"]}}',
     'framed.lambda_matrix must be a list of rows'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"], ["1", "2"]]}}',
     'framed.lambda_matrix has ragged rows'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["x"], 1]}}',
     "not a rational 'p/q' string: 'x'"),
    ('{"linking_matrix": [[2]], "framed": 3}',
     'framed must be an object'),
    ('{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["1"]], "x": 1}}',
     "framed has unknown keys: ['x']"),
    ('{"linking_matrix": [[2]], "framed": {"classes": [[1]]}}',
     'framed needs lambda_matrix'),
]


@pytest.mark.parametrize("text, message", VALIDATION_MESSAGES)
def test_validation_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as caught:
        parse_document(text)
    assert str(caught.value) == message


def rationals():
    """(text, value): a "p" or "p/q" string, not always in lowest terms."""
    whole = st.integers(-9, 9).map(lambda p: (str(p), Fraction(p)))
    ratio = st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(
        lambda pq: ("%d/%d" % pq, Fraction(*pq))
    )
    return whole | ratio


def vectors(n):
    return st.lists(st.integers(-5, 5), min_size=n, max_size=n)


@st.composite
def documents(draw):
    """(obj, doc): a document as plain dicts, lists and strings, its keys in
    any order, and the Document that parse_document must return for it."""
    n = draw(st.integers(0, 3))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = draw(st.integers(-5, 5))
    obj = {"linking_matrix": matrix}
    fields = {"linking_matrix": tuple(map(tuple, matrix))}
    for key in ("combing", "combing2"):
        if draw(st.booleans()):
            c, gamma = draw(vectors(n)), draw(st.integers(-3, 3))
            obj[key] = {"c": c, "gamma": gamma}
            fields[key] = CombingDoc(tuple(c), gamma)
    if draw(st.booleans()):
        obj["meridian"] = draw(vectors(n))
        fields["meridian"] = tuple(obj["meridian"])
    if draw(st.booleans()):
        k, width = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cells = [[draw(rationals()) for _ in range(width)] for _ in range(k)]
        obj["framed"] = {"lambda_matrix": [[text for text, _ in row] for row in cells]}
        classes = None
        if draw(st.booleans()):
            obj["framed"]["classes"] = draw(st.lists(vectors(n), min_size=k, max_size=k))
            classes = tuple(map(tuple, obj["framed"]["classes"]))
        lam = tuple(tuple(value for _, value in row) for row in cells)
        fields["framed"] = FramedDoc(lam, classes)
    if draw(st.booleans()):
        obj["lambda"], fields["casson_walker"] = draw(rationals())
    order = draw(st.permutations(list(obj)))
    return {key: obj[key] for key in order}, Document(**fields)


class TestParseProperty:
    @given(documents())
    @settings(deadline=None)
    def test_parse_of_plain_json(self, case):
        obj, expected = case
        doc = parse_document(json.dumps(obj))
        assert doc == expected
        # NamedTuples and ints compare equal to tuples and Fractions; the
        # reprs also pin every type: records, tuples, and Fraction rationals
        assert repr(doc) == repr(expected)
