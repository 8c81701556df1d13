"""Catalog of definite integrals with elliptic closed forms.

Each registry row pairs a closed form with the name of its oracle in the
_oracles module, oracle(params), which integrates the left-hand side by
adaptive quadrature at ORACLE_TOL, and with a parameter class whose grid map
covers its domain.  First/second-kind pairs that share bounds and kernel
(I5/I4, I6/I3, I3_BARRED/I2_BARRED, GR_F_SIN/GR_E_SIN, LOG_F/LOG_Q2 and
ATAN_F/ATAN_E) are one closed body that gives (F member, E member), named
after the kernel (cosh_closed, sinh_closed, log_closed, atan_closed, and
_atan_kernel_closed for both the psi and xi pairs, with sine and cosine
swapped), and one oracle with a tuple integrand; both rows of a pair name
the two, and each row reads its component of either.  Each closed body but
PSEUDO's makes one pass of elliptic._fed, at a sine and cosine squared
formed from its parameters, and a kernel pair one AGM.  registry_records
makes every registry record, check's and verify's: a pair's two rows at one
point share one closed body call and one integral.  Only oracle_value and
registry_records read _oracles, so the closed forms alone never run it.
"""

import math
from collections import namedtuple
from typing import Callable, NamedTuple

from . import _oracles  # read at call time, so that the closed forms never run it
from ._options import IDENTITY_TOL, IdentityId
from .elliptic import HALF_PI, _agm, _fed
from .errors import DomainError, require_grid_size, require_positive_tol

ORACLE_TOL = 1e-10          # relative tolerance handed to the oracle
_EVEN_MU = 2.0 ** -27       # below it (in mu, or tanh(nu)/k) I4/I5 and I3/I6 are their limits at 0
_GAP_EXACT = 1e-3           # below it (in (k - tanh nu)/k) _tanh_gap forms the gap in decimal
_TINY = 2.2250738585072014e-308  # the least normal float


# ---------------------------------------------------------------------------
# parameter records, each with its grid map: a point (u, v) of the unit box,
# sampled with an absolute margin of 0.05, maps onto the domain; half-lines
# map through u/(1-u)


def _lin(n: int, lo: float = 0.05, hi: float = 0.05 + 0.9) -> list:
    """n evenly spaced points on [lo, hi], or its midpoint when n == 1.  The
    default hi makes hi - lo exactly 0.9 in binary, which 0.95 - 0.05 is not."""
    if require_grid_size(n) == 1:
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
    """(alpha, k), alpha^2 = (e1-e2)(e1+e2)/((1-e2)(1+e2)) and k = e2/e1."""
    p = E1E2(e1, e2)
    alpha = math.sqrt((p.e1 - p.e2) * (p.e1 + p.e2) / ((1.0 - p.e2) * (1.0 + p.e2)))
    return AlphaK(alpha, p.e2 / p.e1)


def alpha_kbar_from_barred(f1: float, f2: float) -> AlphaKBar:
    """(alphabar, kbar) = (d/sqrt(1+f1^2), d/f1), d^2 = (f1-f2)(f1+f2)."""
    p = FBar(f1, f2)
    d2 = (p.f1 - p.f2) * (p.f1 + p.f2)
    return AlphaKBar(math.sqrt(d2 / (1.0 + p.f1 * p.f1)), math.sqrt(d2) / p.f1)


# ---------------------------------------------------------------------------
# closed forms


def i1_closed(p: AlphaK) -> float:
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    s2 = kp2 + (p.k * p.alpha) ** 2
    ca2 = (1.0 - p.alpha) * (1.0 + p.alpha)
    # amplitude lam = arcsin(alpha/sqrt(s2)), with cos^2 lam = k'^2 (1-alpha^2)/s2
    fe, ee, _ = _fed(p.alpha / math.sqrt(s2), kp2 * ca2 / s2, kp2)
    return (math.pi / 4.0) * (
        p.alpha * math.sqrt(ca2) / (s2 * s2)
        + p.alpha * p.alpha * ee / (kp2 * s2 ** 1.5)
        + ca2 * fe / s2 ** 1.5)


def i1_barred_closed(p: AlphaKBar) -> float:
    # the prefactors are homogeneous of degree -3, so formed at alpha, kbar over 2^e, where
    # no square underflows; F, E and sqrt(1 - alpha^2) are not, and read alpha itself
    e, alpha, kbar = _scaled(p.alpha, p.kbar)
    kb2 = kbar * kbar
    diff = (kbar - alpha) * (kbar + alpha)
    # amplitude arcsin(alpha/kbar), with cos^2 = (kbar^2 - alpha^2)/kbar^2
    fe, ee, _ = _fed(alpha / kbar, diff / kb2, (1.0 - p.kbar) * (1.0 + p.kbar))
    s = 1.0 / math.ldexp(1.0, e)  # 2^-e, and s^3 inf above the float range
    return (math.pi / 4.0) * (
        alpha * math.sqrt(1.0 - p.alpha * p.alpha) / (kb2 * diff)
        + fe / (kb2 * math.sqrt(diff))
        + alpha * alpha * ee / (kb2 * diff ** 1.5)) * s * s * s


def pr3_d_closed(p: AlphaZ) -> float:
    # homogeneous of degree -1, so written in r = alpha/z: D(k) at phi = pi/2 and
    # k'^2 = z^2/(z^2 + alpha^2) = 1/(1 + r^2), not rounded through k
    r = p.alpha / p.z
    if r > 2.0 ** 500:
        # k'^2 < 2^-1000: D(k) = ln(4/k') - 1 within O(k'^2 ln k'), r k'^2/z -> 1/alpha
        return HALF_PI * (math.log(4.0) + math.log(p.alpha) - math.log(p.z) - 1.0) / p.alpha
    kp2 = 1.0 / (1.0 + r * r)
    return HALF_PI * (r * kp2) / p.z * _fed(1.0, 0.0, kp2)[2]


def _scaled(*xs: float) -> tuple:
    # (e, *xs over 2^e), e the top binary exponent cut to a multiple of 128: 0 within 2^127 of 1
    e = int(math.frexp(max(xs))[1] / 128) * 128
    return e, *(math.ldexp(x, -e) for x in xs)


def pr3_d_barred_closed(p: AlphaKBar) -> float:
    # homogeneous of degree -1: at alpha, kbar over 2^e, where the gap cannot underflow.
    # K - D at modulus x = alpha/kbar is (E - x'^2 K)/x^2 = x'^2 R_D(0, 1, x'^2)/3
    # (DLMF 19.25.1), by homogeneity x'^-1 times D at phi = pi/2 and k'^2 = 1/x'^2 =
    # kbar^2/gap: one pass, no AGM, and no cancellation of K against D as x -> 1
    e, alpha, kbar = _scaled(p.alpha, p.kbar)
    gap = (kbar - alpha) * (kbar + alpha)
    return HALF_PI * alpha / gap * _fed(1.0, 0.0, kbar * kbar / gap)[2] / 2.0 ** e


def log_closed(p: EpsAB) -> tuple:
    """(LOG_F, LOG_Q2) at p, from one Carlson pass at the amplitude with sine
    beta/eps and cosine squared (eps - beta)(eps + beta)/eps^2, and modulus
    k = alpha/beta."""
    # LOG_Q2 is homogeneous of degree 1, so evaluated at eps = 1 and scaled back
    # by eps: no square of eps, alpha or beta over- or underflows
    a = p.alpha / p.eps
    b = p.beta / p.eps
    k = p.alpha / p.beta
    c2 = (p.eps - p.beta) / p.eps * (1.0 + b)  # from eps - beta, exact as beta -> eps
    # k'^2 from beta - alpha, not from the rounded k, exact as alpha -> beta
    f, _, d = _fed(b, c2, (p.beta - p.alpha) / p.beta * ((p.beta + p.alpha) / p.beta))
    a2 = a * a
    b2 = b * b
    # 1 - sqrt((1-a^2) c2) via its exact-difference form, stable when a, b << 1
    root = math.sqrt((1.0 - a2) * c2)
    elementary = math.pi * ((a2 + b2) - a2 * b2) / (1.0 + root)
    # F - E is k^2 D, free of cancellation at small k
    return (math.pi / p.beta * f, p.eps * (elementary + math.pi * b * k * k * d))


def pseudo_closed(p: E1E2) -> float:
    # 1 - e1 e2 - sqrt((1-e1^2)(1-e2^2)) rewritten as an exact quotient, stable as
    # e2 -> e1, with 1 - e1 e2 = (1 - e1) + e1 (1 - e2) and 1 - e^2 = (1 - e)(1 + e)
    root = math.sqrt((1.0 - p.e1) * (1.0 + p.e1) * ((1.0 - p.e2) * (1.0 + p.e2)))
    return (math.pi / 2.0) * (p.e1 - p.e2) ** 2 / ((1.0 - p.e1) + p.e1 * (1.0 - p.e2) + root)


def _tanh_gap(nu: float, k: float) -> float:
    """k - tanh(nu), the margin of NuK's class, rounded once.  The rounded
    tanh(nu) carries an absolute error of about 1e-16, all of the gap near the
    class's edge, so below _GAP_EXACT * k the gap is formed again from
    e = exp(2 nu) as k - (e - 1)/(e + 1) in stdlib decimal, at 60 digits more
    than nu's own decade; decimal is imported only there.  Raises DomainError
    where the exact gap is not positive: the rounded tanh(nu) put nu inside
    the class, the exact one does not."""
    gap = k - math.tanh(nu)
    if gap >= _GAP_EXACT * k:
        return gap
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, -decimal.Decimal(nu).adjusted())
        e = (2 * decimal.Decimal(nu)).exp()
        gap = float(decimal.Decimal(k) - (e - 1) / (e + 1))
    if not gap > 0.0:
        raise DomainError(f"need tanh(nu) < k exactly, got nu={nu!r}, k={k!r}")
    return gap


def cosh_closed(p: NuK) -> tuple:
    """(I6, I3) at p, from one AGM and one Carlson pass at the amplitude with
    sine tanh(nu)/k and cosine squared (k - tanh nu)(k + tanh nu)/k^2.  Below
    tanh(nu)/k = _EVEN_MU both are their nu -> 0 limits, within a relative
    (tanh(nu)/k)^2, from the AGM alone: the general forms divide by a subnormal
    once nu is one.  Toward k = 1, I6's K(k') - pi/2 cancels in both.  Toward
    the class's edge tanh(nu) = k, the gap comes from _tanh_gap, and atanh(th/k)
    is (log1p(th/k) - log(gap/k))/2 once the gap is below _GAP_EXACT * k."""
    # k'^2 = (1 - k)(1 + k) for _fed, the AGM's k' and den, and gap = k - tanh nu for
    # the cos^2 and atanh(th/k), each formed once
    th = math.tanh(p.nu)
    kp2 = (1.0 - p.k) * (1.0 + p.k)
    gap = _tanh_gap(p.nu, p.k)
    kk, ee = _agm(math.sqrt(kp2), p.k)
    if th < _EVEN_MU * p.k:
        return (kk - HALF_PI) / (p.k * kp2), (ee - HALF_PI * p.k) / (p.k * kp2)
    f, _, d = _fed(th / p.k, gap / p.k * ((p.k + th) / p.k), kp2)
    if gap >= _GAP_EXACT * p.k:
        at = math.atanh(th / p.k)
    else:
        at = 0.5 * (math.log1p(th / p.k) - math.log(gap / p.k))
    den = kp2 * math.sinh(p.nu) * math.cosh(p.nu)
    # F - E = k^2 D
    return ((kk * at - HALF_PI * f) / den,
            (ee * at - HALF_PI * th - HALF_PI * (p.k * p.k * d)) / den)


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
    r = math.sqrt(sech * sech + kp2 * (th * th))
    f, _, d = _fed(th, sech * sech, kp2)
    # atanh(k th) from the exact 1 - k th = (1 - k) + k (1 - th), 1 - th = e sech
    at = 0.5 * math.log1p(2.0 * p.k * th / ((1.0 - p.k) + p.k * (e * sech)))
    scale = 4.0 * e / (kp2 * -math.expm1(-4.0 * p.mu))
    # F - E = k^2 D; th root + (coth mu)(1 - root), root = sqrt(1 + kp2 sinh^2 mu) = r/sech,
    # has e^mu-sized terms: it is th (k^2 sech + r)/(sech + r)
    return (-(kk * at - HALF_PI * f) * scale * e,
            (HALF_PI * (p.k * p.k * d + th * (p.k * p.k * sech + r) / (sech + r)) - ee * at)
            * scale * e)


def _atan_kernel_closed(kbar: float, sa: float, ca: float) -> tuple:
    """(F member, E member) of the kernel 1 - kbar^2 ca^2 sin^2 u from one AGM and
    one Carlson pass: the psi pair at (sin psi, cos psi), the xi pair at (cos xi,
    sin xi).  At beta = atan2(sa, kbar' ca) <= pi/4 the numerators are K beta -
    (pi/2) F(beta) and E beta - (pi/2) E(beta) + (pi/2) kbar^2 sa ca/(r (1 + r)),
    r = hypot(sa, kbar' ca).  Above, where these cancel toward beta = pi/2, they
    come from the conjugate amplitude, sine ca (DLMF 19.11(i)), and gamma = pi/2 -
    beta: (pi/2) F - K gamma and (pi/2) E - E gamma - (pi/2) kbar^2 sa ca/(1 + r).
    Each still cancels about kbar^2/4 of itself, so the error is some kbar^-2 ulps:
    against mpmath at any angle, 1.4e-14 for kbar from 0.5 to 1 - 2^-53, 2.9e-14 at
    0.3, 3.4e-13 at 0.1, 2.6e-11 at 0.01 and 2.4e-7 at 1e-4.  Both divide by
    kbar^2 sa ca: DomainError below its normal range."""
    kb2, kbp2 = kbar * kbar, (1.0 - kbar) * (1.0 + kbar)  # kbar'^2 not rounded through kbar^2
    if (den := kb2 * sa * ca) < _TINY:
        raise DomainError(f"kbar^2 sin cos below {_TINY!r}: kbar={kbar!r}, sin cos={sa * ca!r}")
    kc = math.sqrt(kbp2) * ca
    r = math.hypot(sa, kc)  # sqrt(1 - kbar^2 ca^2)
    kk, ee = _agm(kbar, math.sqrt(kbp2))
    half = HALF_PI * den / (1.0 + r)
    if sa <= kc:  # beta <= pi/4
        sign, angle, half = 1.0, math.atan2(sa, kc), half / r
        f, e, _ = _fed(sa / r, (kc / r) ** 2, kbp2)
    else:  # gamma, at the conjugate amplitude
        sign, angle = -1.0, math.atan2(kc, sa)
        f, e, _ = _fed(ca, sa * sa, kbp2)
    return sign * (kk * angle - HALF_PI * f) / den, sign * (ee * angle - HALF_PI * e + half) / den


def atan_closed(p: FBar) -> tuple:
    """(ATAN_F, ATAN_E) at p, from one Carlson pass at the amplitude phib = arctan f1."""
    # sin and cos^2 of phib, and kbar'^2 = (f2/f1)^2, exact where kbar rounds to 1
    h1 = math.hypot(1.0, p.f1)
    f, e, _ = _fed(p.f1 / h1, 1.0 / (1.0 + p.f1 * p.f1), (p.f2 / p.f1) ** 2)
    # 1 - sqrt(1 - x) as x/(1 + sqrt(1 - x)), with x = kbar^2 sin^2 phib =
    # (f1 - f2)(f1 + f2)/(1 + f1^2) and 1 - x = (1 + f2^2)/(1 + f1^2)
    x = (p.f1 - p.f2) / h1 * ((p.f1 + p.f2) / h1)
    return HALF_PI * f / p.f1, HALF_PI * (e * p.f1 - x / (1.0 + math.hypot(1.0, p.f2) / h1))


# the cos psi kernel, and the sin xi kernel as the cos psi kernel at psi = pi/2 - xi
_psi_closed = lambda p: _atan_kernel_closed(p.kbar, math.sin(p.psi), math.cos(p.psi))  # noqa: E731
_xi_closed = lambda p: _atan_kernel_closed(p.kbar, math.cos(p.xi), math.sin(p.xi))  # noqa: E731


# ---------------------------------------------------------------------------
# registry


# the component a paired row reads of its pair's closed tuple and oracle
# result: the first-kind (F) member or the second-kind (E) member
_F, _E = 0, 1


class _Entry(NamedTuple):
    params_cls: type
    closed: Callable  # closed(params) -> float, or the pair's (F, E) tuple
    oracle: str  # name of its oracle in _oracles: (params) -> QuadratureResult at ORACLE_TOL
    component: int | None = None  # _F or _E for a row of a pair


REGISTRY = {
    IdentityId.I1: _Entry(AlphaK, i1_closed, "i1_part"),
    IdentityId.I1_BARRED: _Entry(AlphaKBar, i1_barred_closed, "i1_barred_part"),
    IdentityId.PR3_D: _Entry(AlphaZ, pr3_d_closed, "pr3_d_part"),
    IdentityId.PR3_D_BARRED: _Entry(AlphaKBar, pr3_d_barred_closed, "pr3_d_barred_part"),
    IdentityId.LOG_F: _Entry(EpsAB, log_closed, "log_part", _F),
    IdentityId.LOG_Q2: _Entry(EpsAB, log_closed, "log_part", _E),
    IdentityId.PSEUDO: _Entry(E1E2, pseudo_closed, "pseudo_part"),
    IdentityId.I3: _Entry(NuK, cosh_closed, "cosh_part", _E),
    IdentityId.I4: _Entry(MuK, sinh_closed, "sinh_part", _E),
    IdentityId.I5: _Entry(MuK, sinh_closed, "sinh_part", _F),
    IdentityId.I6: _Entry(NuK, cosh_closed, "cosh_part", _F),
    IdentityId.I2_BARRED: _Entry(PsiKBar, _psi_closed, "psi_part", _E),
    IdentityId.I3_BARRED: _Entry(PsiKBar, _psi_closed, "psi_part", _F),
    IdentityId.GR_E_SIN: _Entry(XiKBar, _xi_closed, "xi_part", _E),
    IdentityId.GR_F_SIN: _Entry(XiKBar, _xi_closed, "xi_part", _F),
    IdentityId.ATAN_F: _Entry(FBar, atan_closed, "atan_part", _F),
    IdentityId.ATAN_E: _Entry(FBar, atan_closed, "atan_part", _E),
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


def oracle_value(ident: IdentityId, params) -> "quadrature.QuadratureResult":
    """Evaluate the left-hand side by adaptive quadrature at ORACLE_TOL.  For
    a row of a pair, both members are integrated and this row's is returned,
    with the evaluations the pair shared."""
    entry = _entry(ident, params)
    res = getattr(_oracles, entry.oracle)(params)
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
    side fails.  A tol that is not positive (NaN included) raises DomainError."""
    require_positive_tol(tol)
    abs_err = abs(closed - oracle)
    scale = abs(closed)
    rel_err = abs_err / scale if scale > 0.0 else (0.0 if abs_err == 0.0 else math.inf)
    return VerificationRecord(ident, params, closed, oracle, abs_err, rel_err, rel_err <= tol)


def registry_records(rows: list, tol: float) -> list:
    """The record of each registry row (ident, params) in rows, in order.  Each
    closed body and oracle runs once per point: a pair's two rows share both."""
    out, shared = [], {}  # (oracle, params) -> (closed body, integral)
    for ident, params in rows:
        entry = _entry(ident, params)
        key = entry.oracle, params
        if key not in shared:
            shared[key] = entry.closed(params), getattr(_oracles, entry.oracle)(params)
        closed, res = shared[key]
        out.append(make_record(ident.value, params._asdict(), _member(entry, closed),
                               _member(entry, res.value), tol))
    return out


def check(ident: IdentityId, params, tol: float = IDENTITY_TOL) -> VerificationRecord:
    return registry_records([(ident, params)], tol)[0]
