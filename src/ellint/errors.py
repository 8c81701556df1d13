"""Exception hierarchy shared across the library, and its tol, count and axis gates.

DomainError and its subclasses signal bad inputs (CLI exit code 2);
NonConvergenceError and its subclasses signal a numerical process that
failed to reach its target (CLI exit code 3).
"""

import math


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


def require_count(name: str, n: int, least: int) -> int:
    """The one check of a count, n itself: a bool or a float fails it too."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {n!r}")
    return n


def require_axes(*axes: float) -> None:
    """The one check of semi-axes: each positive and finite, so a NaN fails it."""
    for v in axes:
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"semi-axis {v!r} must be positive and finite")
