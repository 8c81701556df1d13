"""Catalog of definite integrals with elliptic closed forms.

Each registry row pairs a closed form with its oracle, oracle(params, tol),
which integrates the left-hand side by adaptive quadrature, and with a
parameter class whose grid map covers its domain.  Integrands over (lo, hi)
with the kernel 1/sqrt((hi^2-q^2)(q^2-lo^2)) are integrated through their
smooth part g(q) with the exact trig substitution, which the weighted-E
oracle grades toward hi itself where u^2 E(u/s) has a log term there
(s = alpha: PR3_D and PR3_D_BARRED); the others are bounded on (0, pi/2)
and integrated directly.  First/second-kind pairs that share bounds and
kernel (I5/I4, I6/I3, I3_BARRED/I2_BARRED, GR_F_SIN/GR_E_SIN, LOG_F/LOG_Q2
and ATAN_F/ATAN_E) share one oracle with a tuple integrand; each row reads
its component.  The four kernel pairs take F and E at each node from
descending Landen steps on an AGM built once per integral (_landen_fe),
which shares no code with elliptic, where the closed forms get theirs.
"""

import math
from collections import namedtuple
from typing import Callable, NamedTuple

from ._options import IDENTITY_TOL, IdentityId
from .elliptic import (HALF_PI, _agm, _fe_sc, carlson_rd, complete_d,
                       complete_e, complete_k, incomplete_d, incomplete_e, incomplete_f)
from .errors import DomainError, KernelSingularityError
from .quadrature import (QuadratureResult, _integrate_singular_pair_graded, integrate,
                         integrate_singular_pair)

ORACLE_TOL = 1e-10          # relative tolerance handed to the oracle
NEAR_ZERO_CUTOFF = 1e-6     # below this |closed| the absolute tolerance applies
NEAR_ZERO_ABS_TOL = 1e-12
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


def pr3_d_barred_closed(p: AlphaKBar) -> float:
    x = p.alpha / p.kbar
    diff = (p.kbar - p.alpha) * (p.kbar + p.alpha)
    return (math.pi * p.alpha / (2.0 * p.kbar * math.sqrt(diff))
            * (complete_k(x) - complete_d(x)))


def log_f_closed(p: EpsAB) -> float:
    return math.pi / p.beta * incomplete_f(math.asin(p.beta / p.eps), p.alpha / p.beta)


def log_q2_closed(p: EpsAB) -> float:
    # homogeneous of degree 1, so evaluated at eps = 1 and scaled back by eps:
    # no square of eps, alpha or beta over- or underflows
    a = p.alpha / p.eps
    b = p.beta / p.eps
    k = p.alpha / p.beta
    a2 = a * a
    b2 = b * b
    # 1 - sqrt((1-a^2)(1-b^2)) via its exact-difference form, stable when a, b << 1
    root = math.sqrt((1.0 - a2) * (1.0 - b2))
    elementary = math.pi * ((a2 + b2) - a2 * b2) / (1.0 + root)
    # F - E written as k^2 D to avoid cancellation at small k
    return p.eps * (elementary + math.pi * b * k * k * incomplete_d(math.asin(b), k))


def pseudo_closed(p: E1E2) -> float:
    # 1 - e1 e2 - sqrt((1-e1^2)(1-e2^2)) rewritten as an exact quotient,
    # stable as e2 -> e1
    root = math.sqrt((1.0 - p.e1 * p.e1) * (1.0 - p.e2 * p.e2))
    return (math.pi / 2.0) * (p.e1 - p.e2) ** 2 / (1.0 - p.e1 * p.e2 + root)


def _check_cosh_kernel(nu: float, k: float) -> float:
    """The 1 - k'^2 cosh^2(nu) sin^2(u) kernel must stay positive on (0, pi/2)."""
    kp = math.sqrt(1.0 - k * k)
    if kp * math.cosh(nu) >= 1.0:
        raise KernelSingularityError(
            f"kernel vanishes inside (0, pi/2): k' cosh(nu) = {kp * math.cosh(nu)!r} >= 1")
    return kp


def i3_closed(p: NuK) -> float:
    kp = _check_cosh_kernel(p.nu, p.k)
    th = math.tanh(p.nu)
    phi = math.asin(th / p.k)
    fme = p.k * p.k * incomplete_d(phi, p.k)
    return ((_agm(kp, p.k)[1] * arctanh_guarded(th / p.k)
             - HALF_PI * th - HALF_PI * fme)
            / (kp * kp * math.sinh(p.nu) * math.cosh(p.nu)))


def i4_closed(p: MuK) -> float:
    # I4 and I5: the amplitude arcsin(tanh mu) as sin = tanh mu, cos^2 = sech^2 mu,
    # and E(k'), K(k') from the AGM started at b_0 = k exactly.  Both are even
    # in mu: below _EVEN_MU, where the general forms divide subnormals, their
    # mu -> 0 limits are within a relative 5e-17
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    if p.mu < _EVEN_MU:
        return (HALF_PI - p.k * _agm(math.sqrt(kp2), p.k)[1] - 0.25 * math.pi * kp2) / kp2
    sh = math.sinh(p.mu)
    ch = math.cosh(p.mu)
    th = math.tanh(p.mu)
    sech2 = (1.0 / ch) ** 2
    root = math.sqrt(1.0 + kp2 * sh * sh)
    # F - E = k^2 D, with D in its R_D form
    fme = p.k * p.k * th * th * th * carlson_rd(sech2, sech2 + kp2 * th * th, 1.0) / 3.0
    # (ch/sh)(1 - root) written as -ch kp2 sh/(1 + root), free of cancellation
    return -(_agm(math.sqrt(kp2), p.k)[1] * arctanh_guarded(p.k * th)
             - HALF_PI * (fme + th * root)
             + HALF_PI * ch * kp2 * sh / (1.0 + root)) / (kp2 * sh * ch)


def i5_closed(p: MuK) -> float:
    # sech^2 mu = (2e/(1 + e^2))^2 and 1/(sinh mu cosh mu) = 4e e/(1 - e^4) in
    # e = exp(-mu), so nothing overflows; the last factor e takes a value that
    # is still a subnormal there gracefully, and one below them to 0.0
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    if p.mu < _EVEN_MU:
        return (HALF_PI - p.k * _agm(math.sqrt(kp2), p.k)[0]) / kp2
    th = math.tanh(p.mu)
    e = math.exp(-p.mu)
    sech2 = (2.0 * e / (1.0 + e * e)) ** 2
    return (-(_agm(math.sqrt(kp2), p.k)[0] * arctanh_guarded(p.k * th)
              - HALF_PI * _fe_sc(th, sech2, kp2)[0])
            * (4.0 * e / (kp2 * -math.expm1(-4.0 * p.mu))) * e)


def i6_closed(p: NuK) -> float:
    kp = _check_cosh_kernel(p.nu, p.k)
    th = math.tanh(p.nu)
    return ((_agm(kp, p.k)[0] * arctanh_guarded(th / p.k)
             - HALF_PI * incomplete_f(math.asin(th / p.k), p.k))
            / (kp * kp * math.sinh(p.nu) * math.cosh(p.nu)))


def _psi_fe(sp: float, cp: float, kbar: float) -> tuple:
    # (beta, F, E) from sin psi and cos psi: beta = arctan(tan(psi)/kbar')
    # without overflow, and F and E at beta from its own sine and cosine, with
    # kbar'^2 not rounded through kbar^2
    kbp2 = (1.0 - kbar) * (1.0 + kbar)
    kc = math.sqrt(kbp2) * cp
    r = math.hypot(sp, kc)
    return (math.atan2(sp, kc), *_fe_sc(sp / r, (kc / r) ** 2, kbp2))


def i2_barred_closed(p: PsiKBar) -> float:
    kb2 = p.kbar * p.kbar
    sp, cp = math.sin(p.psi), math.cos(p.psi)
    beta, _, e = _psi_fe(sp, cp, p.kbar)
    # (sp/cp/root)(1 - root) written as sp cp kb2/(root (1 + root)), free of cancellation
    root = math.sqrt(1.0 - kb2 * cp * cp)
    return ((complete_e(p.kbar) * beta - HALF_PI * e
             + HALF_PI * sp * cp * kb2 / (root * (1.0 + root)))
            / (kb2 * sp * cp))


def i3_barred_closed(p: PsiKBar) -> float:
    sp, cp = math.sin(p.psi), math.cos(p.psi)
    beta, f, _ = _psi_fe(sp, cp, p.kbar)
    return (complete_k(p.kbar) * beta - HALF_PI * f) / (p.kbar * p.kbar * sp * cp)


def gr_e_sin_closed(p: XiKBar) -> float:
    kb2 = p.kbar * p.kbar
    kbp = math.sqrt((1.0 - p.kbar) * (1.0 + p.kbar))
    sx = math.sin(p.xi)
    cx = math.cos(p.xi)
    # (cx/sx)(1 - root) written as cx kb2 sx/(1 + root), free of cancellation
    root = math.sqrt(1.0 - kb2 * sx * sx)
    return -(complete_e(p.kbar) * math.atan2(kbp * sx, cx)
             - HALF_PI * incomplete_e(p.xi, p.kbar)
             + HALF_PI * cx * kb2 * sx / (1.0 + root)) / (kb2 * sx * cx)


def gr_f_sin_closed(p: XiKBar) -> float:
    kbp = math.sqrt((1.0 - p.kbar) * (1.0 + p.kbar))
    sx = math.sin(p.xi)
    cx = math.cos(p.xi)
    return -(complete_k(p.kbar) * math.atan2(kbp * sx, cx)
             - HALF_PI * incomplete_f(p.xi, p.kbar)) / (p.kbar * p.kbar * sx * cx)


def _atan_sc(p: FBar) -> tuple:
    # sin and cos^2 of phib = arctan f1, and kbar'^2 = (f2/f1)^2, exact where kbar rounds to 1
    return p.f1 / math.hypot(1.0, p.f1), 1.0 / (1.0 + p.f1 * p.f1), (p.f2 / p.f1) ** 2


def atan_f_closed(p: FBar) -> float:
    return HALF_PI * _fe_sc(*_atan_sc(p))[0] / p.f1


def atan_e_closed(p: FBar) -> float:
    # 1 - sqrt(1 - x) as x/(1 + sqrt(1 - x)), with x = kbar^2 sin^2 phib =
    # (f1 - f2)(f1 + f2)/(1 + f1^2) and 1 - x = (1 + f2^2)/(1 + f1^2)
    h1 = math.hypot(1.0, p.f1)
    x = (p.f1 - p.f2) / h1 * ((p.f1 + p.f2) / h1)
    return HALF_PI * (_fe_sc(*_atan_sc(p))[1] * p.f1 - x / (1.0 + math.hypot(1.0, p.f2) / h1))


# ---------------------------------------------------------------------------
# integrand parts (oracle side)


def _weighted_e_part(shape: Callable) -> Callable:
    """Oracle of the part u^2 E(u/s) / (c0 + c1 u^2)^n over (0, alpha), with
    (s, c0, c1, n) = shape(params).  Where s is alpha (PR3_D, PR3_D_BARRED),
    E(u/s) has its log term at the upper end, so the graded map is used.
    u / 1.0, +-1.0 * u and x ** 1 are exact, so those rows add no rounding."""

    def oracle(p, tol: float) -> QuadratureResult:
        s, c0, c1, n = shape(p)

        def g(u: float) -> float:
            return u * u * complete_e(u / s) / (c0 + c1 * u * u) ** n

        if s == p.alpha:
            return _integrate_singular_pair_graded(g, 0.0, p.alpha, tol)
        return integrate_singular_pair(g, 0.0, p.alpha, tol)

    return oracle


def _log_part(p: EpsAB, tol: float) -> QuadratureResult:
    """Oracle of LOG_F and LOG_Q2 as one pair over (alpha, beta): the parts
    (v, u^2 v), v = log((eps+u)/(eps-u))."""
    eps = p.eps

    def g(u: float) -> tuple:
        v = math.log((eps + u) / (eps - u))
        return v, u * u * v

    return integrate_singular_pair(g, p.alpha, p.beta, tol)


def _pseudo_part(p: E1E2, tol: float) -> QuadratureResult:
    # g(q) / sqrt((e1^2-q^2)(q^2-e2^2)) is the bounded pseudo-elliptic integrand; direct
    # quadrature would bisect toward both square-root zeros, for about ten times the evaluations
    e1sq = p.e1 * p.e1
    e2sq = p.e2 * p.e2

    def g(q: float) -> float:
        q2 = q * q
        return (e1sq - q2) * (q2 - e2sq) / (q * (1.0 - q2))

    return integrate_singular_pair(g, p.e2, p.e1, tol)


def _agm_steps(b: float, c: float) -> tuple:
    """The AGM from (1, b), c = sqrt(1 - b^2) (DLMF 19.8.1): a_N, the sum of
    2^(n-1) c_n^2 and the steps (a_n^2, b_n^2, a_n, b_n, c_(n+1)).  Needs
    b > 0; from b = 0 the loop would never stop."""
    a = 1.0
    weight = 0.5
    csum = weight * c * c
    steps = []
    while c > 2.0 ** -27 * a:  # else the next step moves a_n by under half an ulp
        a_n, b_n = a, b
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        steps.append((a_n * a_n, b_n * b_n, a_n, b_n, c))
        weight *= 2.0
        csum += weight * c * c
    return a, csum, steps


def _landen_fe(m: float, mc: float) -> Callable:
    """fe(sin phi, cos phi) -> (F, E) at the modulus m with exact complement
    mc, by descending Landen steps (DLMF 19.8(ii); A&S 17.5-17.6) on an AGM
    built once.  Each step tan(phi_(n+1) - phi_n) = (b_n/a_n) tan phi_n acts on
    (sin, cos) as ((a_n + b_n) s c, a_n c^2 - b_n s^2)/sqrt(a_n^2 c^2 + b_n^2 s^2),
    whole turns counted apart, so no angle near pi/2 is rounded (an atan2
    step is 5.7e-12 off there at mc = 1e-15).  F = phi_N/(2^N a_N) and
    E = F E/K + sum c_n sin phi_n, E/K = 2 a_N a'_N/pi + sum 2^(n-1) c'_n^2 by
    Legendre's relation on the complementary AGM, a sum of positive terms."""
    if not (m > 0.0 and mc > 0.0):
        raise DomainError(f"Landen oracle needs m, m' > 0, got {m!r}, {mc!r}")
    a, _, steps = _agm_steps(mc, m)
    a_c, csum_c, _ = _agm_steps(m, mc)
    scale = 2.0 ** len(steps) * a
    e_over_k = 2.0 * a * a_c / math.pi + csum_c

    def fe(s: float, c: float) -> tuple:
        turns, esum = 0, 0.0
        for a2, b2, a_n, b_n, c_next in steps:
            turns += turns
            if c < 0.0:  # turns of phi_(n+1) = round(phi_n/pi), here odd
                turns += math.copysign(1.0, s)
            cc, ss = c * c, s * s
            r = math.sqrt(a2 * cc + b2 * ss)
            s, c = (a_n + b_n) * s * c / r, (a_n * cc - b_n * ss) / r
            esum += c_next * s
        f = (2.0 * math.pi * turns + math.atan2(s, c)) / scale
        return f, f * e_over_k + esum

    return fe


def _kernel_part(kernel: Callable) -> Callable:
    """Decorator: the oracle of a first/second-kind pair, the part (F w, E w)
    over (0, pi/2), F and E at (u, m) from _landen_fe and
    w = d0 s c / ((d0 + d1 s^2) sqrt(c^2 + m'^2 s^2)) with s, c = sin u, cos u,
    for (m, m', d0, d1) = kernel(params), m' exact."""

    def oracle(p, tol: float) -> QuadratureResult:
        m, mc, d0, d1 = kernel(p)
        fe = _landen_fe(m, mc)
        mc2 = mc * mc

        def fn(u: float) -> tuple:
            s = math.sin(u)
            c = math.cos(u)
            s2 = s * s
            f, e = fe(s, c)
            w = d0 * s * c / ((d0 + d1 * s2) * math.sqrt(c * c + mc2 * s2))
            return f * w, e * w

        return integrate(fn, 0.0, HALF_PI, tol)

    return oracle


@_kernel_part
def _cosh_part(p: NuK) -> tuple:
    kp = _check_cosh_kernel(p.nu, p.k)
    return kp, p.k, 1.0, -(kp * kp * math.cosh(p.nu) ** 2)


@_kernel_part
def _sinh_part(p: MuK) -> tuple:
    # 1 + k'^2 sinh^2(mu) s^2 times sech^2 mu = (2e/(1 + e^2))^2, e = exp(-mu): no overflow
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    e = math.exp(-p.mu)
    return math.sqrt(kp2), p.k, (2.0 * e / (1.0 + e * e)) ** 2, kp2 * math.tanh(p.mu) ** 2


@_kernel_part
def _psi_part(p: PsiKBar) -> tuple:
    kbc = math.sqrt((1.0 - p.kbar) * (1.0 + p.kbar))
    return p.kbar, kbc, 1.0, -(p.kbar * p.kbar * math.cos(p.psi) ** 2)


@_kernel_part
def _xi_part(p: XiKBar) -> tuple:
    kbc = math.sqrt((1.0 - p.kbar) * (1.0 + p.kbar))
    return p.kbar, kbc, 1.0, -(p.kbar * p.kbar * math.sin(p.xi) ** 2)


def _atan_part(p: FBar, tol: float) -> QuadratureResult:
    """Oracle of ATAN_F and ATAN_E as one pair over (f2, f1): the parts
    (v, q^2 v), v = atan q."""

    def g(q: float) -> tuple:
        v = math.atan(q)
        return v, q * q * v

    return integrate_singular_pair(g, p.f2, p.f1, tol)


# ---------------------------------------------------------------------------
# registry


# the component a paired row reads of its oracle's result: the first-kind
# (F) member or the second-kind (E) member
_F, _E = 0, 1


class _Entry(NamedTuple):
    params_cls: type
    closed: Callable
    oracle: Callable  # oracle(params, tol) -> QuadratureResult
    component: int | None = None  # _F or _E for a row of a paired oracle


REGISTRY = {
    IdentityId.I1: _Entry(
        AlphaK, i1_closed, _weighted_e_part(lambda p: (1.0, 1.0 - p.k * p.k, p.k * p.k, 2))),
    IdentityId.I1_BARRED: _Entry(
        AlphaKBar, i1_barred_closed, _weighted_e_part(lambda p: (1.0, p.kbar * p.kbar, -1.0, 2))),
    IdentityId.PR3_D: _Entry(
        AlphaZ, pr3_d_closed, _weighted_e_part(lambda p: (p.alpha, p.z * p.z, 1.0, 1))),
    IdentityId.PR3_D_BARRED: _Entry(
        AlphaKBar, pr3_d_barred_closed,
        _weighted_e_part(lambda p: (p.alpha, p.kbar * p.kbar, -1.0, 1))),
    IdentityId.LOG_F: _Entry(EpsAB, log_f_closed, _log_part, _F),
    IdentityId.LOG_Q2: _Entry(EpsAB, log_q2_closed, _log_part, _E),
    IdentityId.PSEUDO: _Entry(E1E2, pseudo_closed, _pseudo_part),
    IdentityId.I3: _Entry(NuK, i3_closed, _cosh_part, _E),
    IdentityId.I4: _Entry(MuK, i4_closed, _sinh_part, _E),
    IdentityId.I5: _Entry(MuK, i5_closed, _sinh_part, _F),
    IdentityId.I6: _Entry(NuK, i6_closed, _cosh_part, _F),
    IdentityId.I2_BARRED: _Entry(PsiKBar, i2_barred_closed, _psi_part, _E),
    IdentityId.I3_BARRED: _Entry(PsiKBar, i3_barred_closed, _psi_part, _F),
    IdentityId.GR_E_SIN: _Entry(XiKBar, gr_e_sin_closed, _xi_part, _E),
    IdentityId.GR_F_SIN: _Entry(XiKBar, gr_f_sin_closed, _xi_part, _F),
    IdentityId.ATAN_F: _Entry(FBar, atan_f_closed, _atan_part, _F),
    IdentityId.ATAN_E: _Entry(FBar, atan_e_closed, _atan_part, _E),
}


def _entry(ident: IdentityId, params) -> _Entry:
    """The registry entry of ident, after checking the parameter type."""
    entry = REGISTRY[ident]
    if not isinstance(params, entry.params_cls):
        raise DomainError(f"{ident.value} expects {entry.params_cls.__name__} parameters")
    return entry


def closed_value(ident: IdentityId, params) -> float:
    return _entry(ident, params).closed(params)


def _read(entry: _Entry, res: QuadratureResult) -> QuadratureResult:
    """entry's own result from its oracle's: its component of a paired
    oracle's tuple result, with the evaluations the pair shared."""
    c = entry.component
    if c is None:
        return res
    return QuadratureResult(res.value[c], res.error_estimate[c], res.evaluations)


def oracle_value(ident: IdentityId, params, tol: float = ORACLE_TOL) -> QuadratureResult:
    """Evaluate the left-hand side by adaptive quadrature.  For a row of a
    paired oracle, both members are integrated and this row's is returned."""
    entry = _entry(ident, params)
    return _read(entry, entry.oracle(params, tol))


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
    """Compare a closed form with its oracle.

    Pass criterion: relative error <= tol, except when |closed| <
    1e-6 where an absolute tolerance of 1e-12 applies instead.
    """
    abs_err = abs(closed - oracle)
    scale = abs(closed)
    rel_err = abs_err / scale if scale > 0.0 else (0.0 if abs_err == 0.0 else math.inf)
    if scale < NEAR_ZERO_CUTOFF:
        passed = abs_err <= NEAR_ZERO_ABS_TOL
    else:
        passed = rel_err <= tol
    return VerificationRecord(ident, params, closed, oracle, abs_err, rel_err, passed)


def check(ident: IdentityId, params, tol: float = IDENTITY_TOL) -> VerificationRecord:
    closed = closed_value(ident, params)
    oracle = oracle_value(ident, params)
    return make_record(ident.value, params._asdict(), closed, oracle.value, tol)
