"""Exception types shared across the package.

Validation failures that are *data* (e.g. parameter violation lists) are
returned as values; exceptions are reserved for contract violations.
"""


class CirclepermError(Exception):
    """Base class for all package errors."""


class NotPrime(CirclepermError):
    pass


class NotMonic(CirclepermError):
    pass


class NotIrreducible(CirclepermError):
    pass


class CtxMismatch(CirclepermError):
    pass


class DivisionByZero(CirclepermError, ZeroDivisionError):
    pass


class InvariantViolation(CirclepermError, AssertionError):
    """An internal invariant failed: a defect in the package, never a verdict."""


class ZeroInput(CirclepermError):
    pass


class MalformedOperand(CirclepermError):
    """A JSON or command-line operand does not have the documented shape."""


class CapExceeded(CirclepermError):
    pass


class InvalidParams(CirclepermError):
    """Construction parameters violate a family's constraint system.

    Attributes:
        violations: list of human-readable condition strings.
    """

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)

