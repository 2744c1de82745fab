"""Exceptions shared by the library and the command-line front end.

Operation preconditions raise DomainError subclasses (CLI exit code 2);
malformed input text raises ParseError, a ValueError (CLI exit code 1).
Each DomainError carries a short ``code`` naming the failed precondition:
its class name without the ``Error`` suffix (``NonTorsionError`` has the
code ``NonTorsion``); DomainError itself has the code ``DomainError``.
"""

from __future__ import annotations


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
