"""Catalog of definite integrals with elliptic closed forms.

Each catalog entry pairs a left-hand-side integrand with its closed form and
a deterministic domain sampler, so any entry can be checked against the
adaptive quadrature oracle.  Integrands over a finite (lo, hi) interval with
the kernel 1/sqrt((hi^2-q^2)(q^2-lo^2)) are stored through their smooth part
g(q) and integrated with the exact trig substitution; the remaining entries
are bounded on (0, pi/2) and integrated directly.
"""

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable

from .elliptic import (HALF_PI, _fe_sc, complete_d, complete_e, complete_k,
                       incomplete_d, incomplete_e, incomplete_f)
from .errors import DomainError, KernelSingularityError
from .quadrature import QuadratureResult, integrate, integrate_singular_pair


class IdentityId(Enum):
    I1 = "I1"
    I1_BARRED = "I1_BARRED"
    PR3_D = "PR3_D"
    PR3_D_BARRED = "PR3_D_BARRED"
    LOG_F = "LOG_F"
    LOG_Q2 = "LOG_Q2"
    PSEUDO = "PSEUDO"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I2_BARRED = "I2_BARRED"
    I3_BARRED = "I3_BARRED"
    GR_E_SIN = "GR_E_SIN"
    GR_F_SIN = "GR_F_SIN"
    ATAN_F = "ATAN_F"
    ATAN_E = "ATAN_E"


class Singularity(Enum):
    NONE = "none"
    INV_SQRT_BOTH = "inverse_sqrt_both_endpoints"


def arctanh_guarded(x: float) -> float:
    """0.5 * ln((1+x)/(1-x)), rejecting |x| >= 1 - 1e-15."""
    if not abs(x) < 1.0 - 1e-15:
        raise DomainError(f"arctanh argument {x!r} too close to +-1")
    return 0.5 * math.log((1.0 + x) / (1.0 - x))


# ---------------------------------------------------------------------------
# parameter records


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


@dataclass(frozen=True)
class AlphaK:
    alpha: float
    k: float

    def __post_init__(self):
        _require(0.0 < self.alpha < 1.0, f"need 0 < alpha < 1, got {self.alpha!r}")
        _require(0.0 < self.k < 1.0, f"need 0 < k < 1, got {self.k!r}")


@dataclass(frozen=True)
class AlphaZ:
    alpha: float
    z: float

    def __post_init__(self):
        _require(self.alpha > 0.0 and math.isfinite(self.alpha),
                 f"need alpha > 0, got {self.alpha!r}")
        _require(self.z > 0.0 and math.isfinite(self.z), f"need z > 0, got {self.z!r}")


@dataclass(frozen=True)
class AlphaKBar:
    alpha: float
    kbar: float

    def __post_init__(self):
        _require(0.0 < self.kbar < 1.0, f"need 0 < kbar < 1, got {self.kbar!r}")
        _require(0.0 < self.alpha < self.kbar,
                 f"need 0 < alpha < kbar, got alpha={self.alpha!r}, kbar={self.kbar!r}")


@dataclass(frozen=True)
class EpsAB:
    eps: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require(math.isfinite(self.eps), f"need finite eps, got {self.eps!r}")
        _require(0.0 < self.alpha < self.beta < self.eps,
                 f"need 0 < alpha < beta < eps, got {self!r}")


@dataclass(frozen=True)
class NuK:
    nu: float
    k: float

    def __post_init__(self):
        _require(self.nu > 0.0 and math.isfinite(self.nu), f"need nu > 0, got {self.nu!r}")
        _require(0.0 < self.k < 1.0, f"need 0 < k < 1, got {self.k!r}")
        _require(math.tanh(self.nu) < self.k,
                 f"need tanh(nu) < k, got nu={self.nu!r}, k={self.k!r}")


@dataclass(frozen=True)
class MuK:
    mu: float
    k: float

    def __post_init__(self):
        _require(self.mu > 0.0 and math.isfinite(self.mu), f"need mu > 0, got {self.mu!r}")
        _require(0.0 < self.k < 1.0, f"need 0 < k < 1, got {self.k!r}")


@dataclass(frozen=True)
class PsiKBar:
    psi: float
    kbar: float

    def __post_init__(self):
        _require(0.0 < self.psi < HALF_PI, f"need 0 < psi < pi/2, got {self.psi!r}")
        _require(0.0 < self.kbar < 1.0, f"need 0 < kbar < 1, got {self.kbar!r}")


@dataclass(frozen=True)
class XiKBar:
    xi: float
    kbar: float

    def __post_init__(self):
        _require(0.0 < self.xi < HALF_PI, f"need 0 < xi < pi/2, got {self.xi!r}")
        _require(0.0 < self.kbar < 1.0, f"need 0 < kbar < 1, got {self.kbar!r}")


@dataclass(frozen=True)
class E1E2:
    e1: float
    e2: float

    def __post_init__(self):
        _require(0.0 < self.e2 < self.e1 < 1.0,
                 f"need 0 < e2 < e1 < 1, got e1={self.e1!r}, e2={self.e2!r}")


@dataclass(frozen=True)
class FBar:
    f1: float
    f2: float

    def __post_init__(self):
        _require(math.isfinite(self.f1) and 0.0 < self.f2 < self.f1,
                 f"need 0 < f2 < f1 < inf, got f1={self.f1!r}, f2={self.f2!r}")


# ---------------------------------------------------------------------------
# parameter maps between the eccentricity and (alpha, k) pictures


def alpha_k_from_eccentricities(e1: float, e2: float) -> AlphaK:
    """(alpha, k) with alpha^2 = (e1^2-e2^2)/(1-e2^2) and k = e2/e1."""
    p = E1E2(e1, e2)
    alpha = math.sqrt((p.e1 * p.e1 - p.e2 * p.e2) / (1.0 - p.e2 * p.e2))
    return AlphaK(alpha, p.e2 / p.e1)


def eccentricities_from_alpha_k(p: AlphaK) -> tuple:
    """Inverse map: e1 = alpha/sqrt(k'^2 + k^2 alpha^2), e2 = k e1."""
    s = math.sqrt(1.0 - p.k * p.k + (p.k * p.alpha) ** 2)
    return (p.alpha / s, p.k * p.alpha / s)


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
    hyp = p.z * p.z + p.alpha * p.alpha
    return math.pi * p.alpha / (2.0 * hyp) * complete_d(p.alpha / math.sqrt(hyp))


def pr3_d_barred_closed(p: AlphaKBar) -> float:
    x = p.alpha / p.kbar
    diff = (p.kbar - p.alpha) * (p.kbar + p.alpha)
    return (math.pi * p.alpha / (2.0 * p.kbar * math.sqrt(diff))
            * (complete_k(x) - complete_d(x)))


def log_f_closed(p: EpsAB) -> float:
    return math.pi / p.beta * incomplete_f(math.asin(p.beta / p.eps), p.alpha / p.beta)


def log_q2_closed(p: EpsAB) -> float:
    e2 = p.eps * p.eps
    phi = math.asin(p.beta / p.eps)
    k = p.alpha / p.beta
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    # eps^2 - sqrt((eps^2-alpha^2)(eps^2-beta^2)) via its exact-difference
    # form, stable when alpha, beta << eps
    root = math.sqrt((e2 - a2) * (e2 - b2))
    elementary = math.pi / p.eps * (e2 * (a2 + b2) - a2 * b2) / (e2 + root)
    # F - E written as k^2 D to avoid cancellation at small k
    return elementary + math.pi * p.beta * k * k * incomplete_d(phi, k)


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
    return ((complete_e(kp) * arctanh_guarded(th / p.k)
             - HALF_PI * th - HALF_PI * fme)
            / (kp * kp * math.sinh(p.nu) * math.cosh(p.nu)))


def i4_closed(p: MuK) -> float:
    kp2 = 1.0 - p.k * p.k
    sh = math.sinh(p.mu)
    ch = math.cosh(p.mu)
    th = sh / ch
    phi = math.asin(th)
    root = math.sqrt(1.0 + kp2 * sh * sh)
    fme = p.k * p.k * incomplete_d(phi, p.k)
    return -(complete_e(math.sqrt(kp2)) * arctanh_guarded(p.k * th)
             - HALF_PI * (fme + th * root)
             - HALF_PI * (ch / sh) * (1.0 - root)) / (kp2 * sh * ch)


def i5_closed(p: MuK) -> float:
    kp2 = 1.0 - p.k * p.k
    sh = math.sinh(p.mu)
    ch = math.cosh(p.mu)
    th = sh / ch
    return -(complete_k(math.sqrt(kp2)) * arctanh_guarded(p.k * th)
             - HALF_PI * incomplete_f(math.asin(th), p.k)) / (kp2 * sh * ch)


def i6_closed(p: NuK) -> float:
    kp = _check_cosh_kernel(p.nu, p.k)
    th = math.tanh(p.nu)
    return ((complete_k(kp) * arctanh_guarded(th / p.k)
             - HALF_PI * incomplete_f(math.asin(th / p.k), p.k))
            / (kp * kp * math.sinh(p.nu) * math.cosh(p.nu)))


def i2_barred_closed(p: PsiKBar) -> float:
    kb2 = p.kbar * p.kbar
    kbp = math.sqrt(1.0 - kb2)
    sp = math.sin(p.psi)
    cp = math.cos(p.psi)
    beta = math.atan2(sp, kbp * cp)  # arctan(tan(psi)/kbp) without overflow
    root = math.sqrt(1.0 - kb2 * cp * cp)
    return ((complete_e(p.kbar) * beta
             - HALF_PI * incomplete_e(beta, p.kbar)
             + HALF_PI * (sp / cp / root) * (1.0 - root))
            / (kb2 * sp * cp))


def i3_barred_closed(p: PsiKBar) -> float:
    kb2 = p.kbar * p.kbar
    kbp = math.sqrt(1.0 - kb2)
    sp = math.sin(p.psi)
    cp = math.cos(p.psi)
    beta = math.atan2(sp, kbp * cp)
    return ((complete_k(p.kbar) * beta - HALF_PI * incomplete_f(beta, p.kbar))
            / (kb2 * sp * cp))


def gr_e_sin_closed(p: XiKBar) -> float:
    kb2 = p.kbar * p.kbar
    kbp = math.sqrt(1.0 - kb2)
    sx = math.sin(p.xi)
    cx = math.cos(p.xi)
    root = math.sqrt(1.0 - kb2 * sx * sx)
    return -(complete_e(p.kbar) * math.atan2(kbp * sx, cx)
             - HALF_PI * incomplete_e(p.xi, p.kbar)
             + HALF_PI * (cx / sx) * (1.0 - root)) / (kb2 * sx * cx)


def gr_f_sin_closed(p: XiKBar) -> float:
    kb2 = p.kbar * p.kbar
    kbp = math.sqrt(1.0 - kb2)
    sx = math.sin(p.xi)
    cx = math.cos(p.xi)
    return -(complete_k(p.kbar) * math.atan2(kbp * sx, cx)
             - HALF_PI * incomplete_f(p.xi, p.kbar)) / (kb2 * sx * cx)


def atan_f_closed(p: FBar) -> float:
    phib = math.atan(p.f1)
    kbar = math.sqrt(1.0 - (p.f2 / p.f1) ** 2)
    return HALF_PI * incomplete_f(phib, kbar) / p.f1


def atan_e_closed(p: FBar) -> float:
    phib = math.atan(p.f1)
    kbar = math.sqrt(1.0 - (p.f2 / p.f1) ** 2)
    sinb = math.sin(phib)
    return HALF_PI * (incomplete_e(phib, kbar) * p.f1
                      - (1.0 - math.sqrt(1.0 - (kbar * sinb) ** 2)))


def pi_third_special(u: float, e1: float, e2: float) -> float:
    """Closed form of the third-kind integral of (1 - k'^2 sin^2 t)^(-3/2)
    over (0, u), where k'^2 = 1 - e2^2/e1^2 and 0 < e2 < e1 < 1."""
    p = E1E2(e1, e2)
    if not (0.0 < u <= HALF_PI):
        raise DomainError(f"need 0 < u <= pi/2, got {u!r}")
    kp2 = 1.0 - (p.e2 / p.e1) ** 2
    kp = math.sqrt(kp2)
    s2 = math.sin(u) ** 2
    w = ((1.0 - p.e2 * p.e2) - kp2 * s2) / (1.0 - kp2 * s2)
    inner = max(((1.0 - p.e2 * p.e2) - w) * (w - (1.0 - p.e1 * p.e1)), 0.0)
    return (p.e1 * p.e1 / (p.e2 * p.e2)) * (
        incomplete_e(u, kp) - math.sqrt(inner) / (p.e1 * math.sqrt(1.0 - w)))


# ---------------------------------------------------------------------------
# integrand parts (oracle side)


def _i1_part(p: AlphaK) -> Callable:
    kp2 = 1.0 - p.k * p.k
    k2 = p.k * p.k

    def g(u: float) -> float:
        return u * u * complete_e(u) / (kp2 + k2 * u * u) ** 2

    return g


def _i1_barred_part(p: AlphaKBar) -> Callable:
    kb2 = p.kbar * p.kbar

    def g(u: float) -> float:
        return u * u * complete_e(u) / (kb2 - u * u) ** 2

    return g


def _pr3_d_part(p: AlphaZ) -> Callable:
    z2 = p.z * p.z
    alpha = p.alpha

    def g(u: float) -> float:
        return u * u * complete_e(u / alpha) / (z2 + u * u)

    return g


def _pr3_d_barred_part(p: AlphaKBar) -> Callable:
    kb2 = p.kbar * p.kbar
    alpha = p.alpha

    def g(u: float) -> float:
        return u * u * complete_e(u / alpha) / (kb2 - u * u)

    return g


def _log_f_part(p: EpsAB) -> Callable:
    eps = p.eps
    return lambda u: math.log((eps + u) / (eps - u))


def _log_q2_part(p: EpsAB) -> Callable:
    eps = p.eps
    return lambda u: u * u * math.log((eps + u) / (eps - u))


def _pseudo_part(p: E1E2) -> Callable:
    e1sq = p.e1 * p.e1
    e2sq = p.e2 * p.e2

    def fn(q: float) -> float:
        q2 = q * q
        return math.sqrt(max((e1sq - q2) * (q2 - e2sq), 0.0)) / (q * (1.0 - q2))

    return fn


def _kernel_part(kernel: Callable, leg: Callable) -> Callable:
    """Part leg(u, m) sin u cos u / ((1 + coef sin^2 u) sqrt(1 - m2 sin^2 u)) with
    (m, m2, coef) = kernel(params).  m2 is not m*m for the sinh kernel (1 - k^2),
    and a kernel 1 - x sin^2 u passes coef = -x, which is exact."""

    def part(p) -> Callable:
        m, m2, coef = kernel(p)

        def fn(u: float) -> float:
            s = math.sin(u)
            s2 = s * s
            return (leg(u, m) * s * math.cos(u)
                    / ((1.0 + coef * s2) * math.sqrt(1.0 - m2 * s2)))

        return fn

    return part


def _cosh_kernel(p: NuK) -> tuple:
    kp = _check_cosh_kernel(p.nu, p.k)
    kp2 = kp * kp
    return kp, kp2, -(kp2 * math.cosh(p.nu) ** 2)


def _sinh_kernel(p: MuK) -> tuple:
    kp2 = 1.0 - p.k * p.k
    return math.sqrt(kp2), kp2, kp2 * math.sinh(p.mu) ** 2


def _psi_kernel(p: PsiKBar) -> tuple:
    kb2 = p.kbar * p.kbar
    return p.kbar, kb2, -(kb2 * math.cos(p.psi) ** 2)


def _xi_kernel(p: XiKBar) -> tuple:
    kb2 = p.kbar * p.kbar
    return p.kbar, kb2, -(kb2 * math.sin(p.xi) ** 2)


def _atan_f_part(p: FBar) -> Callable:
    return lambda q: math.atan(q)


def _atan_e_part(p: FBar) -> Callable:
    return lambda q: q * q * math.atan(q)


# ---------------------------------------------------------------------------
# samplers: deterministic grids over the parameter domain, mapped to the
# unit box with an absolute margin of 0.05; half-lines map through u/(1-u)


def _lin(n: int) -> list:
    if n < 1:
        raise DomainError("grid size must be >= 1")
    if n == 1:
        return [0.5]
    return [0.05 + 0.9 * i / (n - 1) for i in range(n)]


def _half_line(u: float) -> float:
    return u / (1.0 - u)


_EPS_CYCLE = (0.7, 1.0, 1.9, 3.7)


def _sample_alpha_k(n):
    return [AlphaK(a, k) for a in _lin(n) for k in _lin(n)]


def _sample_alpha_kbar(n):
    return [AlphaKBar(kb * v, kb) for kb in _lin(n) for v in _lin(n)]


def _sample_alpha_z(n):
    return [AlphaZ(_half_line(u), _half_line(v)) for u in _lin(n) for v in _lin(n)]


def _sample_eps_ab(n):
    out = []
    for i, u in enumerate(_lin(n)):
        for j, v in enumerate(_lin(n)):
            eps = _EPS_CYCLE[(i * n + j) % len(_EPS_CYCLE)]
            beta = eps * v
            out.append(EpsAB(eps, beta * u, beta))
    return out


def _sample_e1e2(n):
    return [E1E2(e1, e1 * v) for e1 in _lin(n) for v in _lin(n)]


def _sample_nu_k(n):
    return [NuK(math.atanh(k * w), k) for k in _lin(n) for w in _lin(n)]


def _sample_mu_k(n):
    return [MuK(_half_line(m), k) for m in _lin(n) for k in _lin(n)]


def _sample_psi_kbar(n):
    return [PsiKBar(HALF_PI * p, kb) for p in _lin(n) for kb in _lin(n)]


def _sample_xi_kbar(n):
    return [XiKBar(HALF_PI * x, kb) for x in _lin(n) for kb in _lin(n)]


def _sample_fbar(n):
    return [FBar(_half_line(u), _half_line(u) * v) for u in _lin(n) for v in _lin(n)]


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class IntegrandSpec:
    fn: Callable
    lo: float
    hi: float
    singularity: Singularity


@dataclass(frozen=True)
class _Entry:
    params_cls: type
    flags: tuple
    closed: Callable
    bounds: Callable
    singular: bool
    part: Callable
    sampler: Callable


def _quarter_period(p) -> tuple:
    return (0.0, HALF_PI)


REGISTRY = {
    IdentityId.I1: _Entry(
        AlphaK, ("alpha", "k"), i1_closed,
        lambda p: (0.0, p.alpha), True, _i1_part, _sample_alpha_k),
    IdentityId.I1_BARRED: _Entry(
        AlphaKBar, ("alpha", "kbar"), i1_barred_closed,
        lambda p: (0.0, p.alpha), True, _i1_barred_part, _sample_alpha_kbar),
    IdentityId.PR3_D: _Entry(
        AlphaZ, ("alpha", "z"), pr3_d_closed,
        lambda p: (0.0, p.alpha), True, _pr3_d_part, _sample_alpha_z),
    IdentityId.PR3_D_BARRED: _Entry(
        AlphaKBar, ("alpha", "kbar"), pr3_d_barred_closed,
        lambda p: (0.0, p.alpha), True, _pr3_d_barred_part, _sample_alpha_kbar),
    IdentityId.LOG_F: _Entry(
        EpsAB, ("eps", "alpha", "beta"), log_f_closed,
        lambda p: (p.alpha, p.beta), True, _log_f_part, _sample_eps_ab),
    IdentityId.LOG_Q2: _Entry(
        EpsAB, ("eps", "alpha", "beta"), log_q2_closed,
        lambda p: (p.alpha, p.beta), True, _log_q2_part, _sample_eps_ab),
    IdentityId.PSEUDO: _Entry(
        E1E2, ("e1", "e2"), pseudo_closed,
        lambda p: (p.e2, p.e1), False, _pseudo_part, _sample_e1e2),
    IdentityId.I3: _Entry(
        NuK, ("nu", "k"), i3_closed, _quarter_period, False,
        _kernel_part(_cosh_kernel, incomplete_e), _sample_nu_k),
    IdentityId.I4: _Entry(
        MuK, ("mu", "k"), i4_closed, _quarter_period, False,
        _kernel_part(_sinh_kernel, incomplete_e), _sample_mu_k),
    IdentityId.I5: _Entry(
        MuK, ("mu", "k"), i5_closed, _quarter_period, False,
        _kernel_part(_sinh_kernel, incomplete_f), _sample_mu_k),
    IdentityId.I6: _Entry(
        NuK, ("nu", "k"), i6_closed, _quarter_period, False,
        _kernel_part(_cosh_kernel, incomplete_f), _sample_nu_k),
    IdentityId.I2_BARRED: _Entry(
        PsiKBar, ("psi", "kbar"), i2_barred_closed, _quarter_period, False,
        _kernel_part(_psi_kernel, incomplete_e), _sample_psi_kbar),
    IdentityId.I3_BARRED: _Entry(
        PsiKBar, ("psi", "kbar"), i3_barred_closed, _quarter_period, False,
        _kernel_part(_psi_kernel, incomplete_f), _sample_psi_kbar),
    IdentityId.GR_E_SIN: _Entry(
        XiKBar, ("xi", "kbar"), gr_e_sin_closed, _quarter_period, False,
        _kernel_part(_xi_kernel, incomplete_e), _sample_xi_kbar),
    IdentityId.GR_F_SIN: _Entry(
        XiKBar, ("xi", "kbar"), gr_f_sin_closed, _quarter_period, False,
        _kernel_part(_xi_kernel, incomplete_f), _sample_xi_kbar),
    IdentityId.ATAN_F: _Entry(
        FBar, ("f1", "f2"), atan_f_closed,
        lambda p: (p.f2, p.f1), True, _atan_f_part, _sample_fbar),
    IdentityId.ATAN_E: _Entry(
        FBar, ("f1", "f2"), atan_e_closed,
        lambda p: (p.f2, p.f1), True, _atan_e_part, _sample_fbar),
}


def _entry(ident: IdentityId, params) -> _Entry:
    """The registry entry of ident, after checking the parameter type."""
    entry = REGISTRY[ident]
    if not isinstance(params, entry.params_cls):
        raise DomainError(f"{ident.value} expects {entry.params_cls.__name__} parameters")
    return entry


def closed_value(ident: IdentityId, params) -> float:
    return _entry(ident, params).closed(params)


def integrand(ident: IdentityId, params) -> IntegrandSpec:
    """Raw left-hand-side integrand with bounds and singularity annotation."""
    entry = _entry(ident, params)
    lo, hi = entry.bounds(params)
    part = entry.part(params)
    if not entry.singular:
        return IntegrandSpec(part, lo, hi, Singularity.NONE)
    lo2 = lo * lo
    hi2 = hi * hi

    def fn(q: float) -> float:
        return part(q) / math.sqrt((hi2 - q * q) * (q * q - lo2))

    return IntegrandSpec(fn, lo, hi, Singularity.INV_SQRT_BOTH)


def oracle_value(ident: IdentityId, params, tol: float = 1e-10,
                 max_evals: int | None = None) -> QuadratureResult:
    """Evaluate the left-hand side by adaptive quadrature."""
    entry = _entry(ident, params)
    lo, hi = entry.bounds(params)
    part = entry.part(params)
    if entry.singular:
        return integrate_singular_pair(part, lo, hi, tol, max_evals)
    return integrate(part, lo, hi, tol, max_evals)


def grid_params(ident: IdentityId, n: int) -> list:
    """Deterministic n x n parameter grid covering the identity's domain."""
    return REGISTRY[ident].sampler(n)


# ---------------------------------------------------------------------------
# verification records

NEAR_ZERO_CUTOFF = 1e-6
NEAR_ZERO_ABS_TOL = 1e-12


@dataclass(frozen=True)
class VerificationRecord:
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


def check(ident: IdentityId, params, tol: float = 1e-8, oracle_tol: float = 1e-10,
          max_evals: int | None = None) -> VerificationRecord:
    closed = closed_value(ident, params)
    oracle = oracle_value(ident, params, oracle_tol, max_evals)
    return make_record(ident.value, asdict(params), closed, oracle.value, tol)
