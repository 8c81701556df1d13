"""Exception hierarchy shared across the library.

DomainError and its subclasses signal bad inputs (CLI exit code 2);
NonConvergenceError and its subclasses signal a numerical process that
failed to reach its target (CLI exit code 3).
"""


class EllintError(Exception):
    pass


class DomainError(EllintError, ValueError):
    """An argument is outside the documented domain of an operation."""


class DivergenceError(DomainError):
    """The requested value diverges at the given point, e.g. K(1)."""


class NonConvergenceError(EllintError, RuntimeError):
    """An iterative process exhausted its budget before reaching tolerance."""


class NonFiniteIntegrandError(NonConvergenceError):
    """An integrand returned NaN or infinity at a sample point."""
