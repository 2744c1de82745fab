"""Structured text documents for the CLI: the input format and its parser.

A document is a JSON object whose rationals are exact "p/q" strings.  This
module only reads documents; each command writes its own output.

Keys: linking_matrix (required, list of integer rows), combing {c, gamma},
combing2 (second combing for the comparison commands), meridian (integer
list for linking-form), framed {lambda_matrix, classes}, lambda (rational
string).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import RATIONAL_SYNTAX, InvalidInputError, ParseError, integers, rational

_TOP_KEYS = ("linking_matrix", "combing", "combing2", "meridian", "framed", "lambda")


class CombingDoc(NamedTuple):
    c: tuple[int, ...]
    gamma: int


class FramedDoc(NamedTuple):
    lambda_matrix: tuple[tuple[Fraction, ...], ...]
    classes: tuple[tuple[int, ...], ...] | None


class Document(NamedTuple):
    linking_matrix: tuple[tuple[int, ...], ...]
    combing: CombingDoc | None = None
    combing2: CombingDoc | None = None
    meridian: tuple[int, ...] | None = None
    framed: FramedDoc | None = None
    casson_walker: Fraction | None = None


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not RATIONAL_SYNTAX.match(text):
        raise ParseError(f"not a rational 'p/q' string: {text!r}")
    return rational(text, "text")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _expect_int(value, where: str) -> int:
    if not integers((value,)):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_int_vector(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list of integers")
    if integers(value):
        return tuple(value)
    return tuple(_expect_int(x, where) for x in value)  # names the first bad entry


def _parse_rational_row(value, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list of rows")
    return tuple(map(parse_rational, value))


def _parse_matrix(value, where: str, parse_row=_parse_int_vector) -> tuple[tuple, ...]:
    """The rows of a list of rows, each parsed by `parse_row`, in order, and
    then checked to share one length."""
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list of rows")
    rows = tuple(parse_row(row, where) for row in value)
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ParseError(f"{where} has ragged rows")
    return rows


def _parse_combing(value, where: str) -> CombingDoc:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object with keys c and gamma")
    unknown = set(value) - {"c", "gamma"}
    if unknown:
        raise ParseError(f"{where} has unknown keys: {sorted(unknown)}")
    if "c" not in value or "gamma" not in value:
        raise ParseError(f"{where} needs both c and gamma")
    return CombingDoc(
        c=_parse_int_vector(value["c"], f"{where}.c"),
        gamma=_expect_int(value["gamma"], f"{where}.gamma"),
    )


def _parse_framed(value) -> FramedDoc:
    if not isinstance(value, dict):
        raise ParseError("framed must be an object")
    unknown = set(value) - {"lambda_matrix", "classes"}
    if unknown:
        raise ParseError(f"framed has unknown keys: {sorted(unknown)}")
    if "lambda_matrix" not in value:
        raise ParseError("framed needs lambda_matrix")
    matrix = _parse_matrix(value["lambda_matrix"], "framed.lambda_matrix", _parse_rational_row)
    classes = None
    if "classes" in value:
        classes = _parse_matrix(value["classes"], "framed.classes")
    return FramedDoc(lambda_matrix=matrix, classes=classes)


def parse_document(text: str) -> Document:
    """Parse and validate a document; raises ParseError on any defect, and
    InvalidInputError on an integer past CPython's int/str digit limit."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # CPython's int/str digit limit
        raise InvalidInputError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(obj) - set(_TOP_KEYS)
    if unknown:
        raise ParseError(f"unknown document keys: {sorted(unknown)}")
    if "linking_matrix" not in obj:
        raise ParseError("document needs linking_matrix")

    matrix = _parse_matrix(obj["linking_matrix"], "linking_matrix")
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ParseError("linking_matrix must be square")
    if tuple(zip(*matrix)) != matrix:
        raise ParseError("linking_matrix must be symmetric")

    return Document(
        linking_matrix=matrix,
        combing=_parse_combing(obj["combing"], "combing") if "combing" in obj else None,
        combing2=(
            _parse_combing(obj["combing2"], "combing2") if "combing2" in obj else None
        ),
        meridian=(
            _parse_int_vector(obj["meridian"], "meridian")
            if "meridian" in obj
            else None
        ),
        framed=_parse_framed(obj["framed"]) if "framed" in obj else None,
        casson_walker=parse_rational(obj["lambda"]) if "lambda" in obj else None,
    )

