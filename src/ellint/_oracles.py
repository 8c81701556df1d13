"""The identity oracles, each a registry row's left-hand side by adaptive
quadrature at ORACLE_TOL, read by the registry only when one is called: a caller
of the closed forms alone compiles neither this module nor the quadrature.
Every oracle is one quadrature._graded call of an integrand f(sin t, cos t,
dt) of order 1 over (0, pi/2), a scale that carries the integral's size
(ATAN's F member 1/max(f1, 1)) and the widths of the sinh map at each end.
A pair's oracle integrates both members as a tuple.  Integrands with the
kernel 1/sqrt((hi^2-q^2)(q^2-lo^2)) (LOG, ATAN, PSEUDO) come from their
smooth part through quadrature._pair_integrand.  The four kernel pairs and
the four weighted-E rows (I1, I1_BARRED, PR3_D, PR3_D_BARRED) integrate in
swapped order: the inner integral is elementary, so no oracle node needs F or
E, and no oracle calls anything of elliptic.  The cosh and sinh kernel
oracles raise DomainError below k = 5e-8 and 1e-9 (see kernel_oracle).
"""

import math
from typing import Callable

from . import quadrature  # read at call time, as the tests rebind its functions
from .elliptic import HALF_PI
from .errors import DomainError
from .identities import ORACLE_TOL, _TINY, E1E2, EpsAB, FBar, MuK, NuK, _scaled, _tanh_gap


def weighted_e_part(shape: Callable, scaled: bool = False) -> Callable:
    """Oracle of the part u^2 E(u/s) / (c0 + c1 u^2)^n over (0, alpha), in
    swapped order.  At u = alpha sin phi, with E(k) the integral of
    sqrt(1 - k^2 sin^2 theta), the part is alpha times the integral over
    theta of J, the integral over phi of sin phi sqrt(1 - M sin^2 phi) /
    (c0 + R sin^2 phi)^n, M = g^2 sin^2 theta, g = alpha/s, R = c1 alpha^2.
    J is elementary: with P = 1 - M, Q = c0 + R and a^2 = M + R P/Q (so
    1 - a^2 = P c0/Q), J = (h(a^2) - h(M))/R for n = 1, h(x) = x t(x), and
    J = P t(a^2)/(2 Q^2) + 1/(2 Q c0) for n = 2, t(x) = atanh(sqrt x)/sqrt x,
    or atan(sqrt -x)/sqrt -x below 0.  No node needs F, E or anything of
    elliptic.  shape(params, e) gives (g, sqrt c0, R, Q, n), Q free of
    cancellation; the integrand is J/J(0), of order 1, and the scale alpha J(0).
    A scaled row hands shape its parameters over 2^e: c0, R and Q scale as 2^-2e
    and J as 2^2ne, while g (alpha itself for I1_BARRED, else 1) does not scale.
    Where e > 0 puts a parameter over 2^e below the normal range (PR3_D with
    its smaller parameter below 2^(e-1022), its larger 2^e or more) the oracle
    raises DomainError, unevaluated.
    Toward theta = pi/2, P = cos^2 theta + g'^2 sin^2 theta, g' = sqrt(1 - g^2).
    A row with g < 1 (I1, I1_BARRED) has a kink of width g' there from sqrt(P),
    and takes the sinh map toward pi/2 with width g'.  A row with s = alpha
    (PR3_D, PR3_D_BARRED) has g = 1 and a P log P term there instead, which the
    sinh map resolved only at twice the evaluations or more at any width tried
    (grid 5: 2,325 or more against 1,125), so its f maps t to theta = (pi/2)
    sin t itself, with both ends left in t.  For n = 1, once |R|/Q is below
    2^-64, J is its R -> 0 limit (1 + P atanh(m)/m)/(2Q), m = sin theta: the
    difference form divides a + m = 0 by R = 0 where alpha^2 underflows."""

    def oracle(p) -> "quadrature.QuadratureResult":
        e, *xs = _scaled(*p) if scaled else (0, *p)
        if e > 0 and min(xs) < _TINY:
            raise DomainError(f"the oracle needs each parameter over 2^{e} normal, got {p!r}")
        p = p._make(xs)
        g, c, r, q, n = shape(p, e)
        gc = (1.0 - g) * (1.0 + g)
        c0_q = c * c / q
        log_c0_q = 2.0 * math.log(c) - math.log(q)  # no subnormal c0 = c^2 in it

        def j(st: float, ct: float) -> float:
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
            if limit:  # J as R -> 0
                return (1.0 + pp * (tm / st if st else 1.0)) / (2.0 * q)
            if a2 < 0.0:  # h(a^2) = -|a| atan|a|, of the sign opposite to h(M)
                return -(a * ta + st * tm) / r
            # h(a^2) - h(M) = a (atanh a - atanh m) + (a - m) atanh m, m = sin theta: like
            # signs, with the first difference atanh((a - m)/(1 - a m)) where that is small,
            # 1 - a m = (P c0/Q + P + (a - m)^2)/2 and a - m = (a^2 - M)/(a + m)
            apm = a + st
            delta = 2.0 * d / (apm * (pp * c0_q + pp + (d / apm) ** 2))
            diff = math.atanh(delta) if abs(delta) <= 0.5 else ta - tm
            return a * diff / r + pp * tm / (q * apm)

        limit = n == 1 and abs(r) < 2.0 ** -64 * q
        j0 = j(0.0, 1.0)
        # alpha J(0) 2^-(2n-1)e, inf above the float range
        const = p.alpha * j0 * math.prod([1.0 / math.ldexp(1.0, e)] * (2 * n - 1))
        if g < 1.0:
            return quadrature._graded(lambda s, c, dt: j(s, c) * dt / j0, ORACLE_TOL,
                                      1.0, math.sqrt(gc), const)
        # theta = (pi/2) sin t; dt is 1.0 with both ends in t
        return quadrature._graded(
            lambda s, c, dt: j(math.sin(HALF_PI * s), math.cos(HALF_PI * s)) * c / j0 * dt,
            ORACLE_TOL, scale=HALF_PI * const)

    return oracle


# the four weighted-E rows: shape(params, e) of each
i1_part = weighted_e_part(lambda p, e: (
    p.alpha, math.sqrt((1.0 - p.k) * (1.0 + p.k)), (p.k * p.alpha) ** 2,
    (1.0 - p.k) * (1.0 + p.k) + (p.k * p.alpha) ** 2, 2))
i1_barred_part = weighted_e_part(lambda p, e: (
    math.ldexp(p.alpha, e), p.kbar, -p.alpha * p.alpha,
    (p.kbar - p.alpha) * (p.kbar + p.alpha), 2), True)
pr3_d_part = weighted_e_part(lambda p, e: (
    1.0, p.z, p.alpha * p.alpha, p.z * p.z + p.alpha * p.alpha, 1), True)
pr3_d_barred_part = weighted_e_part(lambda p, e: (
    1.0, p.kbar, -p.alpha * p.alpha, (p.kbar - p.alpha) * (p.kbar + p.alpha), 1), True)


def log_part(p: EpsAB) -> "quadrature.QuadratureResult":
    # at eps, alpha, beta over 2^e: LOG_F has degree -1 and LOG_Q2 degree 1.  v = 2 atanh(q/eps) =
    # log1p(2q/(eps - q)), exact at q << eps, eps - q = (eps - beta) + (beta^2 - q^2)/(beta + q)
    e, eps, alpha, beta = _scaled(*p)
    gap, s = eps - beta, math.ldexp(1.0, e)
    return quadrature._graded(quadrature._pair_integrand(
        lambda q, below, above: (v := math.log1p(2.0 * q / (gap + above / (beta + q))),
                                 q * q * v), alpha, beta), ORACLE_TOL, scale=(1.0 / s, s))


def atan_part(p: FBar) -> "quadrature.QuadratureResult":
    # at q = u 2^e, u over (f2, f1)/2^e, each member times its own order-1 factor.  atan(q)/q falls
    # like 1/q above q = 1, so the F member is times h = max(f1, 1), in u; below 2^-128 (e < 0) atan
    # q is q, so it is lifted to u by 2^-e there, and the E member, u^2 atan q, is times 1/f1^2 more
    e, f1, f2 = _scaled(p.f1, p.f2)
    h, lift, ce = max(f1, 1.0), max(-e, 0), 1.0 if e >= 0 else 1.0 / (f1 * f1)
    return quadrature._graded(quadrature._pair_integrand(lambda u, below, above: (
        h * (v := math.ldexp(math.atan(math.ldexp(u, e)), lift)), u * u * v * ce), f2, f1),
        ORACLE_TOL, scale=(math.ldexp(1.0 / h, -e - lift), math.ldexp(1.0 / ce, e - lift)))


def pseudo_part(p: E1E2) -> "quadrature.QuadratureResult":
    # g times the kernel is the bounded sqrt((e1^2-q^2)(q^2-e2^2))/(q (1-q^2)), 1 - q^2 =
    # (1 - e1^2) + (e1^2 - q^2); direct quadrature would bisect toward both square-root zeros.
    # In t it rises over a width e2/e1 at t = 0 and falls over sqrt((1 - e1^2)/span) at
    # t = pi/2, the sinh map's two widths.  q is over 2^e, so that no square underflows,
    # and g over span, both carried by the scale: the integrand is of order 1
    c = (1.0 - p.e1) * (1.0 + p.e1)
    e, e1, e2 = _scaled(p.e1, p.e2)
    span = (e1 - e2) * (e1 + e2)
    scale2 = math.ldexp(1.0, 2 * e)
    f = quadrature._pair_integrand(
        lambda q, below, above: below / span * above / (q * (c + above * scale2)), e2, e1)
    return quadrature._graded(f, ORACLE_TOL, e2 / e1, math.sqrt(c / span) / math.ldexp(1.0, e),
                              math.ldexp(span, 2 * e))


def kernel_oracle(mc: float, q: Callable, zq: float, h: Callable, w0: float = 1.0,
                  const: float = 1.0) -> "quadrature.QuadratureResult":
    """The oracle of a first/second-kind pair, the part (F w, E w) over
    (0, pi/2), F and E at modulus m, w = d0 s c / ((d0 + d1 s^2) D) with
    D = sqrt(c^2 + m'^2 s^2), s, c = sin u, cos u.  In swapped order it is the
    part (W/D, W D) at t, W(t) the integral of w over (t, pi/2), elementary as
    y = D(u) makes w du = -d0 dy/(m^2 d0 + d1 - d1 y^2).  mc is m', exact, and
    W = const q h(z)/z, z = zq q with q = q(s, c, D), or const q where z is 0:
    h is log1p for the cosh and sinh kernels and atan for the cos psi and sin xi
    kernels, and const is both members' scale.  The F leg's 1/D peaks at pi/2
    with width m', which the sinh map takes there for every kernel (the cos psi
    and sin xi kernels: 585 evaluations per grid-5 pair, against 915 in t), and
    the sinh weight at 0 with width w0 = 2e^-mu/k'.  As m' -> 0 the 1/D peak
    escapes the quadrature nodes and estimate, and the map alone does not mend
    it, as W varies on the scale k there: a kernel with m' = k raises
    DomainError, unevaluated, below the least k seen within ORACLE_TOL."""
    mc2 = mc * mc

    def fn(s: float, c: float, dt: float) -> tuple:
        d = math.sqrt(c * c + mc2 * s * s)
        qv = q(s, c, d)
        z = zq * qv
        w = (qv * (h(z) / z) if z else qv) * dt
        return w / d, w * d

    return quadrature._graded(fn, ORACLE_TOL, w0, mc, (const, const))


def cosh_part(p: NuK) -> "quadrature.QuadratureResult":
    # z = 2 k'^2 th q, q = c^2/((D + k) gap (D + th)), const = sech^2(nu), th = tanh nu,
    # k'^2 = (1 - k)(1 + k) and gap = k - th from _tanh_gap, each formed once
    k, th = p.k, math.tanh(p.nu)
    if k < 5e-8:  # see kernel_oracle
        raise DomainError(f"the I3/I6 oracle needs k >= 5e-8, got {p!r}")
    gap = _tanh_gap(p.nu, k)
    return kernel_oracle(k, lambda s, c, d: c / (d + k) * (c / (d + th)) / gap,
                         2.0 * ((1.0 - k) * (1.0 + k)) * th, math.log1p,
                         const=math.cosh(p.nu) ** -2)


def sinh_part(p: MuK) -> "quadrature.QuadratureResult":
    # z = 2 k'^2 th q, q = c^2/((D + k)(1 + th k)(1 - th D)), const = sech^2(mu), in
    # e2 = exp(-2 mu) so nothing overflows: th = tanh mu = -expm1(-2 mu)/(1 + e2), and
    # 1 - th D = k'^2 s^2/(1 + D) + D (1 - th) is a sum of positive terms.  sech^2(mu)
    # underflows to 0 above mu ~ 372, and the oracle returns 0 unevaluated
    k = p.k
    if k < 1e-9:  # see kernel_oracle
        raise DomainError(f"the I4/I5 oracle needs k >= 1e-9, got {p!r}")
    kp2 = (1.0 - k) * (1.0 + k)
    e2 = math.exp(-2.0 * p.mu)
    th = -math.expm1(-2.0 * p.mu) / (1.0 + e2)
    gap = 2.0 * e2 / (1.0 + e2)
    return kernel_oracle(
        k, lambda s, c, d: c / (d + k) * c / ((1.0 + th * k) * (kp2 * s * s / (1.0 + d) + d * gap)),
        2.0 * kp2 * th, math.log1p, 2.0 * math.exp(-p.mu) / math.sqrt(kp2),
        4.0 * e2 / (1.0 + e2) ** 2)


def atan_kernel(kbar: float, sa: float, ca: float) -> "quadrature.QuadratureResult":
    """The oracle of the kernel 1 - kbar^2 ca^2 sin^2 u, sa^2 + ca^2 = 1, at scale 1:
    W = atan(m q)/m, m = kbar^2 sa ca and q = c^2/((D + kbar')(sa^2 + D kbar' ca^2)),
    which is q where m q is 0."""
    kbc = math.sqrt((1.0 - kbar) * (1.0 + kbar))
    sa2, ca2 = sa * sa, ca * ca
    return kernel_oracle(kbc, lambda s, c, d: c * c / ((d + kbc) * (sa2 + d * kbc * ca2)),
                         kbar * kbar * sa * ca, math.atan)


# the cos psi kernel, and the sin xi kernel as the cos psi kernel at psi = pi/2 - xi
psi_part = lambda p: atan_kernel(p.kbar, math.sin(p.psi), math.cos(p.psi))  # noqa: E731
xi_part = lambda p: atan_kernel(p.kbar, math.cos(p.xi), math.sin(p.xi))  # noqa: E731
