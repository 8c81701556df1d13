"""Catalog of definite integrals with elliptic closed forms.

Each registry row pairs a closed form with its oracle, oracle(params, tol),
which integrates the left-hand side by adaptive quadrature, and with a
parameter class whose grid map covers its domain.  Integrands over (lo, hi)
with the kernel 1/sqrt((hi^2-q^2)(q^2-lo^2)) are integrated through their
smooth part g(q) with the exact trig substitution; the others are bounded
on (0, pi/2) and integrated directly.  First/second-kind pairs that share
bounds and kernel (I5/I4, I6/I3, I3_BARRED/I2_BARRED, GR_F_SIN/GR_E_SIN,
LOG_F/LOG_Q2 and ATAN_F/ATAN_E) are one closed body, named after the kernel
(cosh_closed, sinh_closed, psi_closed, xi_closed, log_closed, atan_closed)
that gives (F member, E member) from one Carlson pass and, for the kernel
pairs, one AGM, and one oracle with a tuple integrand; both rows of a pair
share the two, and each row reads its component of either.  The four kernel
pairs and the four weighted-E rows (I1, I1_BARRED, PR3_D, PR3_D_BARRED)
integrate in swapped order: the inner integral is elementary (the kernel
weight's integral W, and the integral over phi of the E integrand against
the weight), so no oracle node needs F or E, and no oracle calls anything of
elliptic.  The cosh and sinh kernel oracles raise DomainError below
k = 5e-8 and 1e-9 (see _kernel_part).
"""

import math
from collections import namedtuple
from typing import Callable, NamedTuple

from . import quadrature  # read at call time, so that the closed forms never load it
from ._options import IDENTITY_TOL, IdentityId
from .elliptic import HALF_PI, _agm, _fe_sc, _rf_rd, carlson_rd, complete_d, complete_k
from .errors import DomainError

ORACLE_TOL = 1e-10          # relative tolerance handed to the oracle
_EVEN_MU = 2.0 ** -27       # below it I4 and I5 are their mu -> 0 limits


def arctanh_guarded(x: float) -> float:
    """atanh(x), rejecting |x| >= 1 - 1e-15."""
    if not abs(x) < 1.0 - 1e-15:
        raise DomainError(f"arctanh argument {x!r} too close to +-1")
    return math.atanh(x)


# ---------------------------------------------------------------------------
# parameter records, each with its grid map: a point (u, v) of the unit box,
# sampled with an absolute margin of 0.05, maps onto the domain; half-lines
# map through u/(1-u)


def _lin(n: int, lo: float = 0.05, hi: float = 0.05 + 0.9) -> list:
    """n evenly spaced points on [lo, hi], or its midpoint when n == 1.  The
    default hi makes hi - lo exactly 0.9 in binary, which 0.95 - 0.05 is not."""
    if n < 1:
        raise DomainError("grid size must be >= 1")
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _half_line(u: float) -> float:
    return u / (1.0 - u)


_EPS_CYCLE = (0.7, 1.0, 1.9, 3.7)


def _params(name: str, fields: str, domain: str, holds: Callable, point: Callable) -> type:
    """Named tuple class name(fields) that checks its domain: building one,
    by position, keyword, _make or _replace, raises DomainError unless
    holds(*values); domain is the same condition in words.  point(u, v, i)
    gives the field values at the grid node (u, v) with flat index i."""
    base = namedtuple(name, fields)

    def __new__(cls, *args, **kwargs):
        self = base.__new__(cls, *args, **kwargs)
        if not holds(*self):
            raise DomainError(f"need {domain}, got {self!r}")
        return self

    return type(name, (base,), {"__slots__": (), "__module__": __name__, "__new__": __new__,
                                "_make": classmethod(lambda cls, values: cls(*values)),
                                "_point": staticmethod(point)})


def _eps_ab_point(u: float, v: float, i: int) -> tuple:
    # eps cycles through _EPS_CYCLE along the flat node index
    eps = _EPS_CYCLE[i % len(_EPS_CYCLE)]
    beta = eps * v
    return eps, beta * u, beta


AlphaK = _params("AlphaK", "alpha k", "0 < alpha < 1 and 0 < k < 1",
                 lambda alpha, k: 0.0 < alpha < 1.0 and 0.0 < k < 1.0,
                 lambda u, v, i: (u, v))
AlphaZ = _params("AlphaZ", "alpha z", "0 < alpha < inf and 0 < z < inf",
                 lambda alpha, z: 0.0 < alpha < math.inf and 0.0 < z < math.inf,
                 lambda u, v, i: (_half_line(u), _half_line(v)))
AlphaKBar = _params("AlphaKBar", "alpha kbar", "0 < alpha < kbar < 1",
                    lambda alpha, kbar: 0.0 < alpha < kbar < 1.0,
                    lambda u, v, i: (u * v, u))
EpsAB = _params("EpsAB", "eps alpha beta", "0 < alpha < beta < eps < inf",
                lambda eps, alpha, beta: 0.0 < alpha < beta < eps < math.inf, _eps_ab_point)
NuK = _params("NuK", "nu k", "0 < tanh(nu) < k < 1",
              lambda nu, k: 0.0 < math.tanh(nu) < k < 1.0,
              lambda u, v, i: (math.atanh(u * v), u))
MuK = _params("MuK", "mu k", "0 < mu < inf and 0 < k < 1",
              lambda mu, k: 0.0 < mu < math.inf and 0.0 < k < 1.0,
              lambda u, v, i: (_half_line(u), v))
PsiKBar = _params("PsiKBar", "psi kbar", "0 < psi < pi/2 and 0 < kbar < 1",
                  lambda psi, kbar: 0.0 < psi < HALF_PI and 0.0 < kbar < 1.0,
                  lambda u, v, i: (HALF_PI * u, v))
XiKBar = _params("XiKBar", "xi kbar", "0 < xi < pi/2 and 0 < kbar < 1",
                 lambda xi, kbar: 0.0 < xi < HALF_PI and 0.0 < kbar < 1.0,
                 lambda u, v, i: (HALF_PI * u, v))
E1E2 = _params("E1E2", "e1 e2", "0 < e2 < e1 < 1", lambda e1, e2: 0.0 < e2 < e1 < 1.0,
               lambda u, v, i: (u, u * v))
FBar = _params("FBar", "f1 f2", "0 < f2 < f1 < inf", lambda f1, f2: 0.0 < f2 < f1 < math.inf,
               lambda u, v, i: (_half_line(u), _half_line(u) * v))


# ---------------------------------------------------------------------------
# parameter maps between the eccentricity and (alpha, k) pictures


def alpha_k_from_eccentricities(e1: float, e2: float) -> AlphaK:
    """(alpha, k) with alpha^2 = (e1^2-e2^2)/(1-e2^2) and k = e2/e1."""
    p = E1E2(e1, e2)
    alpha = math.sqrt((p.e1 * p.e1 - p.e2 * p.e2) / (1.0 - p.e2 * p.e2))
    return AlphaK(alpha, p.e2 / p.e1)


def alpha_kbar_from_barred(f1: float, f2: float) -> AlphaKBar:
    """(alphabar, kbar) with alphabar^2 = (f1^2-f2^2)/(1+f1^2), kbar^2 = 1 - f2^2/f1^2."""
    p = FBar(f1, f2)
    alpha = math.sqrt((p.f1 * p.f1 - p.f2 * p.f2) / (1.0 + p.f1 * p.f1))
    kbar = math.sqrt(1.0 - (p.f2 / p.f1) ** 2)
    return AlphaKBar(alpha, kbar)


# ---------------------------------------------------------------------------
# closed forms


def i1_closed(p: AlphaK) -> float:
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    s2 = kp2 + (p.k * p.alpha) ** 2
    ca2 = (1.0 - p.alpha) * (1.0 + p.alpha)
    # amplitude lam = arcsin(alpha/sqrt(s2)), with cos^2 lam = k'^2 (1-alpha^2)/s2
    fe, ee = _fe_sc(p.alpha / math.sqrt(s2), kp2 * ca2 / s2, kp2)
    return (math.pi / 4.0) * (
        p.alpha * math.sqrt(ca2) / (s2 * s2)
        + p.alpha * p.alpha * ee / (kp2 * s2 ** 1.5)
        + ca2 * fe / s2 ** 1.5)


def i1_barred_closed(p: AlphaKBar) -> float:
    kb2 = p.kbar * p.kbar
    diff = (p.kbar - p.alpha) * (p.kbar + p.alpha)
    # amplitude arcsin(alpha/kbar), with cos^2 = (kbar^2 - alpha^2)/kbar^2
    fe, ee = _fe_sc(p.alpha / p.kbar, diff / kb2, (1.0 - p.kbar) * (1.0 + p.kbar))
    return (math.pi / 4.0) * (
        p.alpha * math.sqrt(1.0 - p.alpha * p.alpha) / (kb2 * diff)
        + fe / (kb2 * math.sqrt(diff))
        + p.alpha * p.alpha * ee / (kb2 * diff ** 1.5))


def pr3_d_closed(p: AlphaZ) -> float:
    # homogeneous of degree -1, so written in r = alpha/z: D(k) = R_D(0, k'^2, 1)/3
    # at k'^2 = z^2/(z^2 + alpha^2) = 1/(1 + r^2), not rounded through k
    r = p.alpha / p.z
    if r > 2.0 ** 500:
        # k'^2 < 2^-1000: D(k) = ln(4/k') - 1 within O(k'^2 ln k'), r k'^2/z -> 1/alpha
        return HALF_PI * (math.log(4.0) + math.log(p.alpha) - math.log(p.z) - 1.0) / p.alpha
    kp2 = 1.0 / (1.0 + r * r)
    return HALF_PI * (r * kp2) / p.z * carlson_rd(0.0, kp2, 1.0) / 3.0


def _scaled(*xs: float) -> tuple:
    # (e, *xs over 2^e), e the top binary exponent cut to a multiple of 128: 0 within 2^127 of 1
    e = int(math.frexp(max(xs))[1] / 128) * 128
    return e, *(math.ldexp(x, -e) for x in xs)


def pr3_d_barred_closed(p: AlphaKBar) -> float:
    # homogeneous of degree -1: at alpha, kbar over 2^e, where the gap cannot underflow
    x = p.alpha / p.kbar
    e, alpha, kbar = _scaled(p.alpha, p.kbar)
    return (math.pi * alpha / (2.0 * kbar * math.sqrt((kbar - alpha) * (kbar + alpha)))
            * (complete_k(x) - complete_d(x)) / 2.0 ** e)


def log_closed(p: EpsAB) -> tuple:
    """(LOG_F, LOG_Q2) at p, from one Carlson pass at the amplitude asin(beta/eps)
    and modulus k = alpha/beta."""
    # LOG_Q2 is homogeneous of degree 1, so evaluated at eps = 1 and scaled back
    # by eps: no square of eps, alpha or beta over- or underflows
    a = p.alpha / p.eps
    b = p.beta / p.eps
    k = p.alpha / p.beta
    phi = math.asin(b)
    s, c2 = math.sin(phi), math.cos(phi) ** 2
    rf, rd = _rf_rd(c2, c2 + (1.0 - k) * (1.0 + k) * (s * s), 1.0)
    a2 = a * a
    b2 = b * b
    # 1 - sqrt((1-a^2)(1-b^2)) via its exact-difference form, stable when a, b << 1
    root = math.sqrt((1.0 - a2) * (1.0 - b2))
    elementary = math.pi * ((a2 + b2) - a2 * b2) / (1.0 + root)
    # F - E written as k^2 D to avoid cancellation at small k
    return (math.pi / p.beta * (s * rf),
            p.eps * (elementary + math.pi * b * k * k * (s * s * s * rd / 3.0)))


def pseudo_closed(p: E1E2) -> float:
    # 1 - e1 e2 - sqrt((1-e1^2)(1-e2^2)) rewritten as an exact quotient,
    # stable as e2 -> e1
    root = math.sqrt((1.0 - p.e1 * p.e1) * (1.0 - p.e2 * p.e2))
    return (math.pi / 2.0) * (p.e1 - p.e2) ** 2 / (1.0 - p.e1 * p.e2 + root)


def cosh_closed(p: NuK) -> tuple:
    """(I6, I3) at p, from one AGM and one Carlson pass at the amplitude asin(tanh(nu)/k)."""
    kp = math.sqrt(1.0 - p.k * p.k)
    th = math.tanh(p.nu)
    phi = math.asin(th / p.k)
    s, c2 = math.sin(phi), math.cos(phi) ** 2
    rf, rd = _rf_rd(c2, c2 + (1.0 - p.k) * (1.0 + p.k) * (s * s), 1.0)
    kk, ee = _agm(kp, p.k)
    at = arctanh_guarded(th / p.k)
    den = kp * kp * math.sinh(p.nu) * math.cosh(p.nu)
    # F - E = k^2 D, with D in its R_D form
    return ((kk * at - HALF_PI * (s * rf)) / den,
            (ee * at - HALF_PI * th - HALF_PI * (p.k * p.k * (s * s * s * rd / 3.0))) / den)


def sinh_closed(p: MuK) -> tuple:
    """(I5, I4) at p, from one AGM and one Carlson pass."""
    # the amplitude arcsin(tanh mu) as sin = tanh mu, cos^2 = sech^2 mu, and
    # E(k'), K(k') from the AGM started at b_0 = k exactly.  Both members are even
    # in mu: below _EVEN_MU, where the general forms divide subnormals, their
    # mu -> 0 limits are within a relative 5e-17.  Above it, sech mu = 2e/(1 + e^2)
    # and 1/(sinh mu cosh mu) = 4e e/(1 - e^4) in e = exp(-mu), so nothing
    # overflows; the last factor e takes a value that is still a subnormal there
    # gracefully, and one below them to 0.0
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    kk, ee = _agm(math.sqrt(kp2), p.k)
    if p.mu < _EVEN_MU:
        return (HALF_PI - p.k * kk) / kp2, (HALF_PI - p.k * ee - 0.25 * math.pi * kp2) / kp2
    th = math.tanh(p.mu)
    e = math.exp(-p.mu)
    sech = 2.0 * e / (1.0 + e * e)
    y = sech * sech + kp2 * (th * th)
    r = math.sqrt(y)
    rf, rd = _rf_rd(sech * sech, y, 1.0)
    at = arctanh_guarded(p.k * th)
    scale = 4.0 * e / (kp2 * -math.expm1(-4.0 * p.mu))
    # F - E = k^2 D, with D in its R_D form; th root + (coth mu)(1 - root), root =
    # sqrt(1 + kp2 sinh^2 mu) = r/sech, has e^mu-sized terms: it is th (k^2 sech + r)/(sech + r)
    fme = p.k * p.k * th * th * th * rd / 3.0
    return (-(kk * at - HALF_PI * (th * rf)) * scale * e,
            (HALF_PI * (fme + th * (p.k * p.k * sech + r) / (sech + r)) - ee * at) * scale * e)


def psi_closed(p: PsiKBar) -> tuple:
    """(I3_BARRED, I2_BARRED) at p, from one AGM and one Carlson pass."""
    # beta = arctan(tan(psi)/kbar') without overflow, and F and E at beta from its
    # own sine and cosine, with kbar'^2 not rounded through kbar^2
    kb2 = p.kbar * p.kbar
    kbp2 = (1.0 - p.kbar) * (1.0 + p.kbar)
    sp, cp = math.sin(p.psi), math.cos(p.psi)
    kc = math.sqrt(kbp2) * cp
    r = math.hypot(sp, kc)
    beta = math.atan2(sp, kc)
    f, e = _fe_sc(sp / r, (kc / r) ** 2, kbp2)
    kk, ee = _agm(p.kbar, math.sqrt(kbp2))
    # (sp/cp/root)(1 - root) written as sp cp kb2/(root (1 + root)), free of cancellation
    root = math.sqrt(1.0 - kb2 * cp * cp)
    return ((kk * beta - HALF_PI * f) / (kb2 * sp * cp),
            (ee * beta - HALF_PI * e + HALF_PI * sp * cp * kb2 / (root * (1.0 + root)))
            / (kb2 * sp * cp))


def xi_closed(p: XiKBar) -> tuple:
    """(GR_F_SIN, GR_E_SIN) at p, from one AGM and one Carlson pass."""
    kb2 = p.kbar * p.kbar
    kbp2 = (1.0 - p.kbar) * (1.0 + p.kbar)
    sx, cx = math.sin(p.xi), math.cos(p.xi)
    gamma = math.atan2(math.sqrt(kbp2) * sx, cx)
    f, e = _fe_sc(sx, cx ** 2, kbp2)
    kk, ee = _agm(p.kbar, math.sqrt(kbp2))
    # (cx/sx)(1 - root) written as cx kb2 sx/(1 + root), free of cancellation
    root = math.sqrt(1.0 - kb2 * sx * sx)
    return (-(kk * gamma - HALF_PI * f) / (kb2 * sx * cx),
            -(ee * gamma - HALF_PI * e + HALF_PI * cx * kb2 * sx / (1.0 + root)) / (kb2 * sx * cx))


def atan_closed(p: FBar) -> tuple:
    """(ATAN_F, ATAN_E) at p, from one Carlson pass at the amplitude phib = arctan f1."""
    # sin and cos^2 of phib, and kbar'^2 = (f2/f1)^2, exact where kbar rounds to 1
    h1 = math.hypot(1.0, p.f1)
    f, e = _fe_sc(p.f1 / h1, 1.0 / (1.0 + p.f1 * p.f1), (p.f2 / p.f1) ** 2)
    # 1 - sqrt(1 - x) as x/(1 + sqrt(1 - x)), with x = kbar^2 sin^2 phib =
    # (f1 - f2)(f1 + f2)/(1 + f1^2) and 1 - x = (1 + f2^2)/(1 + f1^2)
    x = (p.f1 - p.f2) / h1 * ((p.f1 + p.f2) / h1)
    return HALF_PI * f / p.f1, HALF_PI * (e * p.f1 - x / (1.0 + math.hypot(1.0, p.f2) / h1))


# ---------------------------------------------------------------------------
# integrand parts (oracle side)


def _weighted_e_part(shape: Callable, homogeneous: bool = False) -> Callable:
    """Oracle of the part u^2 E(u/s) / (c0 + c1 u^2)^n over (0, alpha), in
    swapped order.  At u = alpha sin phi, with E(k) the integral of
    sqrt(1 - k^2 sin^2 theta), the part is alpha times the integral over
    theta of J, the integral over phi of sin phi sqrt(1 - M sin^2 phi) /
    (c0 + R sin^2 phi)^n, M = g^2 sin^2 theta, g = alpha/s, R = c1 alpha^2.
    J is elementary: with P = 1 - M, Q = c0 + R and a^2 = M + R P/Q (so
    1 - a^2 = P c0/Q), J = (h(a^2) - h(M))/R for n = 1, h(x) = x t(x), and
    J = P t(a^2)/(2 Q^2) + 1/(2 Q c0) for n = 2, t(x) = atanh(sqrt x)/sqrt x,
    or atan(sqrt -x)/sqrt -x below 0.  No node needs F, E or anything of
    elliptic.  shape(params) gives (g, sqrt c0, R, Q, n), Q free of
    cancellation; the oracle divides J by J(0), so the integrand stays O(1).
    A homogeneous part (degree -1) is integrated at its parameters over 2^e.
    The n = 1 rows (PR3_D, PR3_D_BARRED) have s = alpha: M = sin^2 theta,
    J has a P log P term at theta = pi/2, and theta = (pi/2) sin tau grades
    the nodes toward it."""

    def oracle(p, tol: float) -> "quadrature.QuadratureResult":
        e, *xs = _scaled(*p) if homogeneous else (0, *p)
        p = p._make(xs)
        g, c, r, q, n = shape(p)
        gc = (1.0 - g) * (1.0 + g)
        c0_q = c * c / q
        log_c0_q = 2.0 * math.log(c) - math.log(q)  # no subnormal c0 = c^2 in it

        def j(theta: float) -> float:
            st, ct = math.sin(theta), math.cos(theta)
            pp = ct * ct + gc * st * st  # P
            d = r * pp / q  # a^2 - M
            a2 = (g * st) ** 2 + d
            a = math.sqrt(abs(a2))
            if a2 < 0.0:  # a = i |a|, and atanh(a)/a = atan|a|/|a|
                ta = math.atan(a)
            elif a2 < 0.25:
                ta = math.atanh(a)
            else:  # 1 - a^2 from log P + log(c0/Q), exact as a^2 -> 1
                ta = math.log1p(a) - 0.5 * (math.log(pp) + log_c0_q)
            if n == 2:
                return pp * (ta / a if a else 1.0) / (2.0 * q * q) + 0.5 / (q * c) / c
            tm = math.atanh(st) if st < 0.5 else math.log1p(st) - math.log(ct)  # atanh sqrt M
            if a2 < 0.0:  # h(a^2) = -|a| atan|a|, of the sign opposite to h(M)
                return -(a * ta + st * tm) / r
            # h(a^2) - h(M) = a (atanh a - atanh m) + (a - m) atanh m, m = sin theta: like
            # signs, with the first difference atanh((a - m)/(1 - a m)) where that is small,
            # 1 - a m = (P c0/Q + P + (a - m)^2)/2 and a - m = (a^2 - M)/(a + m)
            apm = a + st
            delta = 2.0 * d / (apm * (pp * c0_q + pp + (d / apm) ** 2))
            diff = math.atanh(delta) if abs(delta) <= 0.5 else ta - tm
            return a * diff / r + pp * tm / (q * apm)

        j0 = j(0.0)
        if g == 1.0:
            def fn(tau: float) -> float:
                return j(HALF_PI * math.sin(tau)) * math.cos(tau) / j0
            const = p.alpha * j0 * HALF_PI / 2.0 ** e
        else:
            def fn(theta: float) -> float:
                return j(theta) / j0
            const = p.alpha * j0 / 2.0 ** e
        value, err, evals = quadrature.integrate(fn, 0.0, HALF_PI, tol)
        return quadrature.QuadratureResult(const * value, const * err, evals)

    return oracle


def _pair_part(integrand: Callable) -> Callable:
    """Oracle of a first/second-kind pair over (lo, hi) with the kernel
    1/sqrt((hi^2-q^2)(q^2-lo^2)): the parts (v, q^2 v), integrand(params)
    giving (v, lo, hi).  v is 2 atanh(u/eps) for LOG_F and LOG_Q2, the log
    of (eps+u)/(eps-u) exact at u << eps, and atan q for ATAN_F and ATAN_E."""

    def oracle(p, tol: float) -> "quadrature.QuadratureResult":
        v, lo, hi = integrand(p)

        def g(q: float) -> tuple:
            x = v(q)
            return x, q * q * x

        return quadrature.integrate_singular_pair(g, lo, hi, tol)

    return oracle


_log_part = _pair_part(lambda p: (lambda u: 2.0 * math.atanh(u / p.eps), p.alpha, p.beta))
_atan_part = _pair_part(lambda p: (math.atan, p.f2, p.f1))


def _pseudo_part(p: E1E2, tol: float) -> "quadrature.QuadratureResult":
    # g(q) / sqrt((e1^2-q^2)(q^2-e2^2)) is the bounded pseudo-elliptic integrand; direct
    # quadrature would bisect toward both square-root zeros, for about ten times the evaluations
    e1sq, e2sq = p.e1 * p.e1, p.e2 * p.e2

    def g(q: float) -> float:
        q2 = q * q
        return (e1sq - q2) * (q2 - e2sq) / (q * (1.0 - q2))

    return quadrature.integrate_singular_pair(g, p.e2, p.e1, tol)


def _kernel_part(kernel: Callable) -> Callable:
    """Decorator: the oracle of a first/second-kind pair, the part (F w, E w)
    over (0, pi/2), F and E at modulus m, w = d0 s c / ((d0 + d1 s^2) D) with
    D = sqrt(c^2 + m'^2 s^2), s, c = sin u, cos u.  In swapped order it is the
    part (W/D, W D) at t, W(t) the integral of w over (t, pi/2), elementary as
    y = D(u) makes w du = -d0 dy/(m^2 d0 + d1 - d1 y^2).  kernel(params) gives
    (m', weight, const), m' exact, W = const weight(s, c, D); const scales the
    integral after quadrature, so the integrand stays O(1).  As m' -> 0 the F leg's
    1/D peak at t = pi/2, of width m', escapes the GK15 nodes and estimate: a kernel
    with m' = k raises DomainError, unevaluated, below the least k seen within ORACLE_TOL."""

    def oracle(p, tol: float) -> "quadrature.QuadratureResult":
        mc, weight, const = kernel(p)
        if const == 0.0:  # the sinh constant underflows above mu ~ 372
            return quadrature.QuadratureResult((0.0, 0.0), (0.0, 0.0), 0)
        mc2 = mc * mc

        def fn(t: float) -> tuple:
            s, c = math.sin(t), math.cos(t)
            d = math.sqrt(c * c + mc2 * s * s)
            w = weight(s, c, d)
            return w / d, w * d

        value, err, evals = quadrature.integrate(fn, 0.0, HALF_PI, tol)
        return quadrature.QuadratureResult(tuple(const * v for v in value),
                                           tuple(const * e for e in err), evals)

    return oracle


@_kernel_part
def _cosh_part(p: NuK) -> tuple:
    # W = sech^2(nu) q log1p(z)/z, z = 2 k'^2 th q, q = c^2/((D + k)(k - th)(D + th)), th = tanh nu
    k, th = p.k, math.tanh(p.nu)
    if k < 5e-8:  # see _kernel_part
        raise DomainError(f"the I3/I6 oracle needs k >= 5e-8, got {p!r}")
    kp = math.sqrt(1.0 - k * k)
    zq = 2.0 * kp * kp * th

    def weight(s: float, c: float, d: float) -> float:
        q = c / (d + k) * (c / (d + th)) / (k - th)
        z = zq * q
        return q * (math.log1p(z) / z) if z else q

    return k, weight, math.cosh(p.nu) ** -2


@_kernel_part
def _sinh_part(p: MuK) -> tuple:
    # W = sech^2(mu) q log1p(z)/z, z = 2 k'^2 th q, q = c^2/((D + k)(1 + th k)(1 - th D)),
    # in e2 = exp(-2 mu) so nothing overflows: th = tanh mu = -expm1(-2 mu)/(1 + e2), and
    # 1 - th D = k'^2 s^2/(1 + D) + D (1 - th) is a sum of positive terms
    k = p.k
    if k < 1e-9:  # see _kernel_part
        raise DomainError(f"the I4/I5 oracle needs k >= 1e-9, got {p!r}")
    kp2 = (1.0 - k) * (1.0 + k)
    e2 = math.exp(-2.0 * p.mu)
    th = -math.expm1(-2.0 * p.mu) / (1.0 + e2)
    gap = 2.0 * e2 / (1.0 + e2)
    zq = 2.0 * kp2 * th

    def weight(s: float, c: float, d: float) -> float:
        q = c / (d + k) * c / ((1.0 + th * k) * (kp2 * s * s / (1.0 + d) + d * gap))
        z = zq * q
        return q * (math.log1p(z) / z) if z else q

    return k, weight, 4.0 * e2 / (1.0 + e2) ** 2


def _atan_kernel(kbar: float, sa: float, ca: float) -> tuple:
    """(kbar', weight, 1) of the kernel 1 - kbar^2 ca^2 sin^2 u, sa^2 + ca^2 = 1:
    W = atan2(kbar^2 sa ca c^2/(D + kbar'), sa^2 + D kbar' ca^2)/(kbar^2 sa ca)."""
    kbc = math.sqrt((1.0 - kbar) * (1.0 + kbar))
    scale = kbar * kbar * sa * ca
    sa2, ca2 = sa * sa, ca * ca
    return kbc, lambda s, c, d: math.atan2(
        scale * c * c / (d + kbc), sa2 + d * kbc * ca2) / scale, 1.0


# the cos psi kernel, and the sin xi kernel as the cos psi kernel at psi = pi/2 - xi
_psi_part = _kernel_part(lambda p: _atan_kernel(p.kbar, math.sin(p.psi), math.cos(p.psi)))
_xi_part = _kernel_part(lambda p: _atan_kernel(p.kbar, math.cos(p.xi), math.sin(p.xi)))


# ---------------------------------------------------------------------------
# registry


# the component a paired row reads of its pair's closed tuple and oracle
# result: the first-kind (F) member or the second-kind (E) member
_F, _E = 0, 1


class _Entry(NamedTuple):
    params_cls: type
    closed: Callable  # closed(params) -> float, or the pair's (F, E) tuple
    oracle: Callable  # oracle(params, tol) -> QuadratureResult
    component: int | None = None  # _F or _E for a row of a pair


REGISTRY = {
    IdentityId.I1: _Entry(AlphaK, i1_closed, _weighted_e_part(lambda p: (
        p.alpha, math.sqrt((1.0 - p.k) * (1.0 + p.k)), (p.k * p.alpha) ** 2,
        (1.0 - p.k) * (1.0 + p.k) + (p.k * p.alpha) ** 2, 2))),
    IdentityId.I1_BARRED: _Entry(AlphaKBar, i1_barred_closed, _weighted_e_part(lambda p: (
        p.alpha, p.kbar, -p.alpha * p.alpha, (p.kbar - p.alpha) * (p.kbar + p.alpha), 2))),
    IdentityId.PR3_D: _Entry(AlphaZ, pr3_d_closed, _weighted_e_part(lambda p: (
        1.0, p.z, p.alpha * p.alpha, p.z * p.z + p.alpha * p.alpha, 1), True)),
    IdentityId.PR3_D_BARRED: _Entry(AlphaKBar, pr3_d_barred_closed, _weighted_e_part(lambda p: (
        1.0, p.kbar, -p.alpha * p.alpha, (p.kbar - p.alpha) * (p.kbar + p.alpha), 1), True)),
    IdentityId.LOG_F: _Entry(EpsAB, log_closed, _log_part, _F),
    IdentityId.LOG_Q2: _Entry(EpsAB, log_closed, _log_part, _E),
    IdentityId.PSEUDO: _Entry(E1E2, pseudo_closed, _pseudo_part),
    IdentityId.I3: _Entry(NuK, cosh_closed, _cosh_part, _E),
    IdentityId.I4: _Entry(MuK, sinh_closed, _sinh_part, _E),
    IdentityId.I5: _Entry(MuK, sinh_closed, _sinh_part, _F),
    IdentityId.I6: _Entry(NuK, cosh_closed, _cosh_part, _F),
    IdentityId.I2_BARRED: _Entry(PsiKBar, psi_closed, _psi_part, _E),
    IdentityId.I3_BARRED: _Entry(PsiKBar, psi_closed, _psi_part, _F),
    IdentityId.GR_E_SIN: _Entry(XiKBar, xi_closed, _xi_part, _E),
    IdentityId.GR_F_SIN: _Entry(XiKBar, xi_closed, _xi_part, _F),
    IdentityId.ATAN_F: _Entry(FBar, atan_closed, _atan_part, _F),
    IdentityId.ATAN_E: _Entry(FBar, atan_closed, _atan_part, _E),
}


def _entry(ident: IdentityId, params) -> _Entry:
    """The registry entry of ident, after checking the parameter type."""
    entry = REGISTRY[ident]
    if not isinstance(params, entry.params_cls):
        raise DomainError(f"{ident.value} expects {entry.params_cls.__name__} parameters")
    return entry


def _member(entry: _Entry, x):
    """entry's own member of x, a pair's (F, E) tuple; x itself for an unpaired row."""
    return x if entry.component is None else x[entry.component]


def closed_value(ident: IdentityId, params) -> float:
    """Evaluate the closed form: for a row of a pair, its member of the pair's body."""
    entry = _entry(ident, params)
    return _member(entry, entry.closed(params))


def oracle_value(ident: IdentityId, params,
                 tol: float = ORACLE_TOL) -> "quadrature.QuadratureResult":
    """Evaluate the left-hand side by adaptive quadrature.  For a row of a
    pair, both members are integrated and this row's is returned, with the
    evaluations the pair shared."""
    entry = _entry(ident, params)
    res = entry.oracle(params, tol)
    return res._replace(value=_member(entry, res.value),
                        error_estimate=_member(entry, res.error_estimate))


def grid_params(ident: IdentityId, n: int) -> list:
    """Deterministic n x n parameter grid covering the identity's domain: the
    parameter class's grid map at n x n nodes of [0.05, 0.95]^2, row by row."""
    cls = REGISTRY[ident].params_cls
    nodes = _lin(n)
    return [cls(*cls._point(u, v, i))
            for i, (u, v) in enumerate((u, v) for u in nodes for v in nodes)]


# ---------------------------------------------------------------------------
# verification records


class VerificationRecord(NamedTuple):
    ident: str
    params: dict
    closed: float
    oracle: float
    abs_err: float
    rel_err: float
    passed: bool


def make_record(ident: str, params: dict, closed: float, oracle: float,
                tol: float) -> VerificationRecord:
    """Compare a closed form with its oracle.  The one pass rule is rel_err
    <= tol, with rel_err = |closed - oracle|/|closed|: an exact zero passes
    only against an exact zero (rel_err 0.0, else inf), and a NaN on either
    side fails."""
    abs_err = abs(closed - oracle)
    scale = abs(closed)
    rel_err = abs_err / scale if scale > 0.0 else (0.0 if abs_err == 0.0 else math.inf)
    return VerificationRecord(ident, params, closed, oracle, abs_err, rel_err, rel_err <= tol)


def check(ident: IdentityId, params, tol: float = IDENTITY_TOL) -> VerificationRecord:
    closed = closed_value(ident, params)
    oracle = oracle_value(ident, params)
    return make_record(ident.value, params._asdict(), closed, oracle.value, tol)
