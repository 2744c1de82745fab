"""Exceptions shared by the library and the command-line front end, and the
package's input rules: one for integers, one for rationals and one for
sequences.

Operation preconditions raise DomainError subclasses (CLI exit code 2);
malformed input text raises ParseError, and an argument of the wrong type or
value raises InvalidInputError; both are ValueErrors (CLI exit code 1).  Any
other ValueError raised inside the library is a bug (CLI exit code 3).
Each DomainError carries a short ``code`` naming the failed precondition:
its class name without the ``Error`` suffix (``NonTorsionError`` has the
code ``NonTorsion``); DomainError itself has the code ``DomainError``.

An integer is an `int` that is not a `bool`, as JSON's integers are
(`integers`): the document parser, the vector and matrix checks and the
scalar arguments of the library all read that rule here.  A rational is an
integer, a `Fraction` or a "p/q" string of the document's syntax
(`RATIONAL_SYNTAX`, `rational`); a sequence is any iterable (`sequence`).
A record constructor takes a record where one is due, and nothing else
(`instance`).
"""

from __future__ import annotations

import re
from fractions import Fraction

# the document's exact rationals: "p" or "p/q" with q positive
RATIONAL_SYNTAX = re.compile(r"-?\d+(/[1-9]\d*)?\Z")


class DomainError(Exception):
    """An operation was called outside its stated domain."""

    code = "DomainError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__.removesuffix("Error")


class NonTorsionError(DomainError):
    """A homology class or combing that must be torsion is not."""


class NotCharacteristicError(DomainError):
    """A coefficient vector fails c_i = B_ii (mod 2) at some index."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"index {index}: coefficient parity differs from the framing parity")


class CapExceededError(DomainError):
    """A torsion enumeration or an image-p1 sweep would exceed the cap."""

    def __init__(self, torsion_order: int, cap: int, message: str | None = None) -> None:
        self.torsion_order = torsion_order
        self.cap = cap
        super().__init__(message or f"torsion order {torsion_order} exceeds cap {cap}")


class DimensionMismatchError(DomainError):
    """Vector or matrix dimensions do not agree."""


class EvenCoefficientError(DomainError):
    """The coefficient over a +/-1-framed unknot must be odd."""


class BadEtaError(DomainError):
    """A twisting sign parameter must be +1 or -1."""


class NotZSphereError(DomainError):
    """The operation needs an integral homology sphere (or ball) ambient."""


class MissingClassesError(DomainError):
    """Framed link data lacks the ambient homology data required here."""


class ParseError(ValueError):
    """Input text does not describe a valid document."""


class InvalidInputError(ValueError):
    """An argument of a library call has the wrong type, shape or value,
    where no DomainError names the failed precondition."""


def integers(values) -> bool:
    """True when every value is an integer: of type `int` exactly, so a
    `bool`, a float or a `Fraction` is not, however it compares."""
    return {int}.issuperset(map(type, values))


def integer(value, name: str) -> int:
    """`value` when it is an integer (`integers`), else an
    InvalidInputError that names the argument."""
    if not integers((value,)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return value


def rational(value, name: str) -> Fraction:
    """`value` as a Fraction when it is an integer (`integers`), a Fraction
    or a string of `RATIONAL_SYNTAX`, else an InvalidInputError that names
    the argument; so is a string past CPython's int/str digit limit."""
    if not (integers((value,)) or type(value) is Fraction
            or isinstance(value, str) and RATIONAL_SYNTAX.match(value)):
        raise InvalidInputError(f"{name} must be an integer, a Fraction or a 'p/q' string, "
                                f"got {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:  # CPython's int/str digit limit
        raise InvalidInputError(str(exc)) from exc


def sequence(value, name: str) -> tuple:
    """`value` as a tuple when it is iterable, else an InvalidInputError
    that names the argument."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence, got {value!r}") from None


def instance(value, kind: type, name: str):
    """`value` when it is a `kind`, else an InvalidInputError that names the
    argument."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value
