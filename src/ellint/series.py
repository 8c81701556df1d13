"""Series representations of the paired-kernel log integrals.

Two families of odd-index coefficients are generated by three-term recurrences
in (e1, e2) with 0 < e2 < e1 < 1, checked by building identities.E1E2; the counts
m_max, max_terms and m are checked by errors.require_count:

  A:     sigma1 = pi * sum A_{2m+1}        (the plain log-kernel integral)
  Omega: sigma2 = pi * (sum Omega_{2m+1} - 1)   (the q^2-weighted one)

Omega splits termwise into Theta + Psi, the terms of 1 - sqrt((1-e1^2)(1-e2^2))
and of e1 (F - E)(arcsin e1, e2/e1); each is read from one Cauchy product of
two binomial series (_binomial_product), and Psi_1 = Psi_3 = 0.  Sums use
compensated (Kahan) accumulation and a two-sided termination test on the
next term.

The terms shrink like e1^(2m), so a sum takes about 25/(1 - e1^2) terms: at
the default max_terms of 100,000 the sums converge up to e1 of about 0.9998
(59,576 terms at e2 = 0.5) and raise NonConvergenceError above it.

_sigma_sums names each sum's closed reference, LOG_F or LOG_Q2 of identities.log_closed.
"""

import itertools
import math
from typing import NamedTuple

from ._options import MAX_TERMS_DEFAULT, SERIES_TERM_TOL
from .errors import DomainError, NonConvergenceError, require_count, require_positive_tol
from .identities import E1E2

_ABS_TAIL = 1e-18


class SeriesCoefficients(NamedTuple):
    kind: str  # "A" | "OMEGA" | "THETA" | "PSI"
    e1: float
    e2: float
    terms: tuple  # terms[m] is the coefficient of index 2m+1


class SeriesSum(NamedTuple):
    value: float
    terms_used: int
    truncation_estimate: float


def _a_next(s: float, p: float, n: int, a3: float, a1: float) -> float:
    # s = e1^2 + e2^2, p = e1^2 e2^2; returns A_{2n+5} from A_{2n+3}, A_{2n+1}
    return ((s * (2 * n + 3) ** 2 * a3 - 2.0 * p * (n + 1) * (2 * n + 1) * a1)
            / (2.0 * (n + 2) * (2 * n + 5)))


def _omega_next(s: float, p: float, n: int, w3: float, w1: float) -> float:
    # |2n-1| is taken literally: the n = 0 step uses +1, which is what
    # reproduces the closed form of the fifth coefficient
    return ((s * (2 * n + 1) * (2 * n + 3) * w3 - 2.0 * p * (n + 1) * abs(2 * n - 1) * w1)
            / (2.0 * (n + 2) * (2 * n + 3)))


# kind -> (divisor d, recurrence, start): X_1 = 1 and X_3 = (e1^2 + e2^2)/d
# begin the family, and its sigma sum starts at start.  sigma2 sums the Omega
# tail (start 0), which keeps it relatively accurate at tiny eccentricities.
_FAMILIES = {"A": (6.0, _a_next, 1.0), "OMEGA": (2.0, _omega_next, 0.0)}


def _family(kind: str, e1: float, e2: float):
    """X_1, X_3, X_5, ... of the recurrence family kind, without end."""
    divisor, next_fn, _ = _FAMILIES[kind]
    s = e1 * e1 + e2 * e2
    p = (e1 * e2) ** 2
    prev, cur = 1.0, s / divisor
    yield prev
    for n in itertools.count():  # cur = X_{2n+3}
        yield cur
        prev, cur = cur, next_fn(s, p, n, cur, prev)


def _recurrence_terms(kind: str, e1: float, e2: float, m_max: int) -> SeriesCoefficients:
    E1E2(e1, e2)
    require_count("m_max", m_max, 0)
    terms = itertools.islice(_family(kind, e1, e2), m_max + 1)
    return SeriesCoefficients(kind, e1, e2, tuple(terms))


def a_coefficients(e1: float, e2: float, m_max: int) -> SeriesCoefficients:
    """A_1 .. A_{2 m_max + 1}; A_1 = 1, A_3 = (e1^2 + e2^2)/6."""
    return _recurrence_terms("A", e1, e2, m_max)


def omega_coefficients(e1: float, e2: float, m_max: int) -> SeriesCoefficients:
    """Omega_1 .. Omega_{2 m_max + 1}; Omega_1 = 1, Omega_3 = (e1^2 + e2^2)/2."""
    return _recurrence_terms("OMEGA", e1, e2, m_max)


def _binomial_product(p: float, x: float, y: float, m: int) -> float:
    """The t^m coefficient of (1 - x t)^p (1 - y t)^p: the Cauchy product of two
    binomial series with c_0 = 1 and c_i = c_(i-1) (i - 1 - p)/i."""
    c = [1.0]
    for i in range(1, m + 1):
        c.append(c[i - 1] * (i - 1 - p) / i)
    return math.fsum(c[i] * c[m - i] * x ** i * y ** (m - i) for i in range(m + 1))


def theta_terms(e1: float, e2: float, m_max: int) -> SeriesCoefficients:
    """Cauchy-product terms of 1 - sqrt(1-e1^2) sqrt(1-e2^2); Theta_1 = 0."""
    E1E2(e1, e2)
    require_count("m_max", m_max, 0)
    terms = [-_binomial_product(0.5, e1 * e1, e2 * e2, m) for m in range(1, m_max + 1)]
    return SeriesCoefficients("THETA", e1, e2, (0.0, *terms))


def psi_terms(e1: float, e2: float, m_max: int) -> SeriesCoefficients:
    """Terms of e1 (F - E)(arcsin e1, k) = e2^2 int_0^e1 t^2 / sqrt((1-t^2)(1-k^2 t^2)) dt
    with k = e2/e1: Psi_(2m+1) = e1^2 e2^2 P(e2^2, e1^2, m-2)/(2m-1), P the
    p = -1/2 binomial product.  Psi_1 = Psi_3 = 0; Omega = Theta + Psi termwise."""
    E1E2(e1, e2)
    require_count("m_max", m_max, 0)
    e1sq, e2sq = e1 * e1, e2 * e2
    terms = [e1sq * e2sq * _binomial_product(-0.5, e2sq, e1sq, m - 2) / (2 * m - 1)
             for m in range(2, m_max + 1)]
    return SeriesCoefficients("PSI", e1, e2, (0.0, 0.0, *terms)[:m_max + 1])


def _sigma_sum(kind: str, e1: float, e2: float, tol: float, max_terms: int) -> SeriesSum:
    """pi times the Kahan-compensated sum of the recurrence family kind, from
    the family's start value (see _FAMILIES).

    Stops before adding a term that is below tol relative to the partial sum
    AND below 1e-18 in absolute value; raises NonConvergenceError at
    max_terms.  The truncation estimate is a geometric tail bound, since
    successive terms approach a ratio of e1^2.
    """
    E1E2(e1, e2)
    require_positive_tol(tol)
    require_count("max_terms", max_terms, 2)
    total = _FAMILIES[kind][2]
    comp = 0.0
    used = 1
    for prev, cur in itertools.pairwise(_family(kind, e1, e2)):
        if abs(cur) < tol * abs(total) and abs(cur) < _ABS_TAIL:
            tail = max(abs(prev), abs(cur) / (1.0 - e1 * e1))
            return SeriesSum(math.pi * total, used, math.pi * tail)
        if used >= max_terms:
            raise NonConvergenceError(
                f"series did not converge within {max_terms} terms "
                f"(e1={e1!r}, e2={e2!r}, last term {cur:.3e})")
        y = cur - comp
        t = total + y
        comp = (t - total) - y
        total = t
        used += 1


def sigma1_sum(e1: float, e2: float, tol: float = SERIES_TERM_TOL,
               max_terms: int = MAX_TERMS_DEFAULT) -> SeriesSum:
    """sigma1 = pi * sum A_{2m+1}; equals (pi/e1) F(arcsin e1, e2/e1).

    Converges within the default max_terms up to e1 of about 0.9998 and
    raises NonConvergenceError above it.
    """
    return _sigma_sum("A", e1, e2, tol, max_terms)


def sigma2_sum(e1: float, e2: float, tol: float = SERIES_TERM_TOL,
               max_terms: int = MAX_TERMS_DEFAULT) -> SeriesSum:
    """sigma2 = pi * (sum Omega_{2m+1} - 1), summed without the leading 1.

    Equals pi [1 - sqrt((1-e1^2)(1-e2^2))] + pi e1 [F - E](arcsin e1, e2/e1).
    Converges within the default max_terms up to e1 of about 0.9998 and
    raises NonConvergenceError above it.
    """
    return _sigma_sum("OMEGA", e1, e2, tol, max_terms)


def _sigma_sums() -> dict:
    """Each sigma sum with the member of identities.log_closed(EpsAB(1, e2, e1)),
    LOG_F or LOG_Q2 at unit log argument, that is its closed value.  Built per
    call, so that rebinding these names (as the perfbench layer trace does) is honoured."""
    return {"SIGMA1": (sigma1_sum, 0), "SIGMA2": (sigma2_sum, 1)}


def f_maclaurin_derivative(m: int, e1: float, e2: float) -> float:
    """Odd Maclaurin derivative of x -> F(arcsin x, e2/e1) at x = 0, for m <= 85.

    Equals (2m+1)! A_{2m+1} / e1^(2m).  A_{2m+1} is homogeneous of degree 2m,
    so this is (2m+1)! 2^(2m) A_{2m+1}(1/2, k/2) with k = e2/e1, and the power
    of two scales exactly; k/2 is formed as e2/(2 e1), which stays above zero
    for every e2 > 0.  The value is below (2m)!, which overflows from m = 86
    on; those orders raise DomainError.
    """
    require_count("m", m, 0)
    E1E2(e1, e2)
    if m > 85:
        raise DomainError(f"derivative order {2 * m + 1} overflows; m can be at most 85")
    a = a_coefficients(0.5, e2 / (2.0 * e1), m).terms[m]
    return math.ldexp(a, 2 * m) * (2 * m + 1) * math.factorial(2 * m)
