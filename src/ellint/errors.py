"""Exception hierarchy shared across the library, and its one tol check.

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


def require_positive_tol(tol: float) -> None:
    """The one check of a caller's relative tolerance: a NaN fails it too."""
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
