"""Shared exception types."""


class AccessKitError(Exception):
    """Base class for all package errors."""


class UnregisteredVariableError(AccessKitError):
    pass


class ZeroPolynomialError(AccessKitError):
    pass


class ExactDivisionError(AccessKitError):
    pass


class PoleError(AccessKitError):
    """Denominator vanishes at an evaluation point (numerator does not)."""


class IndeterminateError(AccessKitError):
    """Both numerator and denominator vanish at an evaluation point (0/0)."""


class DegenerateDenominatorError(AccessKitError):
    """A substitution produced an identically zero denominator."""

    def __init__(self, message, binding=None):
        super().__init__(message)
        self.binding = binding


class ResourceBudgetError(AccessKitError):
    """A Groebner run exceeded its degree/size budget.

    Carries the partial basis so callers can inspect how far the run got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


class VerificationError(AccessKitError):
    """An exact check of a computed result failed: a fault in the
    computation, not a property of the input."""
