"""Legendre-form elliptic integrals via Carlson symmetric forms and the AGM.

Incomplete integrals take an amplitude phi in [0, pi/2] and a modulus k in
[0, 1].  They reduce to the Carlson functions R_F and R_D, evaluated by the
duplication algorithm: the argument triple is contracted toward its mean
until a fifth-order Taylor tail suffices.  R_D's duplication step uses the
same lambda as R_F's, so one fused loop returns both; every (F, E) pair at
one (phi, k) comes from that single loop.  The argument 1 - k^2 sin^2 phi
is formed as cos^2 phi + k'^2 sin^2 phi, which keeps full double precision
uniformly in k, including the (pi/2, 1) corner, without the cancellation
that plagues the (F - E)/k^2 route for D at small k.  Complete K and E come
from the arithmetic-geometric mean (DLMF 19.8), which converges
quadratically; complete D stays on R_D, which is stable at small k.
"""

import math

from .errors import DivergenceError, DomainError

HALF_PI = math.pi / 2.0

# Duplication runs until 4^-m * Q < |A_m|; these prefactors put the Taylor
# tail error below 1 ulp (Q scales the initial spread of the arguments).
_RF_PREF = (3.0 * 1e-16) ** (-1.0 / 6.0)
_RD_PREF = (0.25 * 1e-16) ** (-1.0 / 6.0)

# A triple whose sum reaches _HUGE (or is not finite) is scaled by _SHRINK
# first, so that neither the sum nor the spread Q overflows; the results are
# scaled back by homogeneity, R_F(l x) = R_F(x)/sqrt(l), R_D(l x) = R_D(x)/l^1.5.
_HUGE = 2.0 ** 1000
_SHRINK = 2.0 ** -32
_SHRINK_RF = 2.0 ** -16
_SHRINK_RD = 2.0 ** -48

# The AGM stops once c_n <= _AGM_TOL * a_n: the next step would move a_n by
# about (c_n/a_n)^2/4 relative, below half an ulp.
_AGM_TOL = 2.0 ** -27


def _shrunk(x: float, y: float, z: float) -> tuple:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"Carlson arguments must be finite, got {(x, y, z)!r}")
    return (x * _SHRINK, y * _SHRINK, z * _SHRINK)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z); finite, nonnegative, at most one argument zero."""
    s = x + y + z
    if not s < _HUGE:
        return carlson_rf(*_shrunk(x, y, z)) * _SHRINK_RF
    if min(x, y, z) < 0.0 or (x + y) == 0.0 or (y + z) == 0.0 or (x + z) == 0.0:
        raise DomainError("carlson_rf needs nonnegative args, at most one zero")
    a = s / 3.0
    q = _RF_PREF * max(abs(a - x), abs(a - y), abs(a - z))
    x0, y0, a0 = x, y, a
    scale = 1.0
    while scale * q >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        scale *= 0.25
    dx = scale * (a0 - x0) / a
    dy = scale * (a0 - y0) / a
    dz = -dx - dy
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def _rf_rd(x: float, y: float, z: float) -> tuple:
    """(R_F(x, y, z), R_D(x, y, z)) from one duplication loop.

    Both share lambda at every step; the loop tracks R_F's mean a and
    recovers R_D's as a - 4^-m (aF0 - aD0), running until both stopping
    rules hold.  Domain as carlson_rd: finite x, y >= 0 (not both zero), z > 0.
    """
    s = x + y + z
    if not s < _HUGE:
        rf, rd = _rf_rd(*_shrunk(x, y, z))
        return (rf * _SHRINK_RF, rd * _SHRINK_RD)
    if min(x, y) < 0.0 or z <= 0.0 or (x + y) == 0.0:
        raise DomainError("carlson_rd needs x, y >= 0 (not both zero) and z > 0")
    af0 = s / 3.0
    ad0 = (s + 2.0 * z) / 5.0
    gap = af0 - ad0
    q = max(_RF_PREF * max(abs(af0 - x), abs(af0 - y), abs(af0 - z)),
            _RD_PREF * max(abs(ad0 - x), abs(ad0 - y), abs(ad0 - z)) + abs(gap))
    x0, y0, a = x, y, af0
    scale = 1.0
    tail = 0.0
    while scale * q >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += scale / (sz * (z + lam))
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        scale *= 0.25
    dx = scale * (af0 - x0) / a
    dy = scale * (af0 - y0) / a
    dz = -dx - dy
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)
    a -= scale * gap
    dx = scale * (ad0 - x0) / a
    dy = scale * (ad0 - y0) / a
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz * dz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return (rf, scale * series / (a * math.sqrt(a)) + 3.0 * tail)


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson R_D(x, y, z) = R_J(x, y, z, z); finite x, y >= 0, z > 0."""
    return _rf_rd(x, y, z)[1]


def _agm(k: float) -> tuple:
    """(K(k), E(k)) for 0 <= k < 1 by the arithmetic-geometric mean.

    a_0 = 1, b_0 = k', c_0 = k; K = pi/(2 a_N) and
    E = K (1 - sum 2^(n-1) c_n^2) (DLMF 19.8.1, 19.8.6).  c_(n+1) is
    formed as c_n^2/(4 a_(n+1)), free of the cancellation in (a_n - b_n)/2.
    """
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    weight = 0.5
    csum = weight * c * c
    while c > _AGM_TOL * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        weight *= 2.0
        csum += weight * c * c
    kk = HALF_PI / a
    return (kk, kk * (1.0 - csum))


def _fe_sc(s: float, c2: float, kc2: float) -> tuple:
    """(F, E) at the amplitude with sine s and cosine squared c2, for the
    complementary modulus squared kc2 = k'^2, from one fused loop.

    Callers that know cos phi directly pass it here without an asin round
    trip; 1 - k^2 s^2 is formed as c2 + k'^2 s^2, with no cancellation.
    Needs c2 > 0 or kc2 > 0, which excludes only the (pi/2, 1) corner.
    """
    s2 = s * s
    rf, rd = _rf_rd(c2, c2 + kc2 * s2, 1.0)
    f = s * rf
    return (f, f - (1.0 - kc2) * s * s2 * rd / 3.0)


def _f_sc(s: float, c2: float, kc2: float) -> float:
    """F alone from the same arguments as _fe_sc, with one R_F call."""
    return s * carlson_rf(c2, c2 + kc2 * s * s, 1.0)


def _e_sc(s: float, c2: float, kc2: float) -> float:
    """E alone from the same arguments as _fe_sc."""
    return _fe_sc(s, c2, kc2)[1]


def _check_amplitude(phi: float) -> None:
    if not (0.0 <= phi <= HALF_PI) or math.isnan(phi):
        raise DomainError(f"amplitude {phi!r} outside [0, pi/2]")


def _check_modulus(k: float) -> None:
    if not (0.0 <= k <= 1.0) or math.isnan(k):
        raise DomainError(f"modulus {k!r} outside [0, 1]")


def incomplete_f(phi: float, k: float) -> float:
    """F(phi, k) = integral of 1/sqrt(1 - k^2 sin^2 t) over (0, phi).

    Diverges at (pi/2, 1); that corner raises DivergenceError.
    """
    _check_amplitude(phi)
    _check_modulus(k)
    if k == 1.0 and phi == HALF_PI:
        raise DivergenceError("F(pi/2, 1) diverges")
    if phi == 0.0:
        return 0.0
    return _f_sc(math.sin(phi), math.cos(phi) ** 2, (1.0 - k) * (1.0 + k))


def incomplete_e(phi: float, k: float) -> float:
    """E(phi, k) = integral of sqrt(1 - k^2 sin^2 t) over (0, phi)."""
    _check_amplitude(phi)
    _check_modulus(k)
    if phi == 0.0:
        return 0.0
    if k == 1.0 and phi == HALF_PI:
        return 1.0
    return _e_sc(math.sin(phi), math.cos(phi) ** 2, (1.0 - k) * (1.0 + k))


def incomplete_d(phi: float, k: float) -> float:
    """D(phi, k) = (F - E)/k^2 = integral of sin^2 t/sqrt(1 - k^2 sin^2 t).

    Evaluated through R_D, which is uniformly stable: at k = 0 it returns
    the analytic limit (phi - sin phi cos phi)/2 with no cancellation.
    """
    _check_amplitude(phi)
    _check_modulus(k)
    if k == 1.0 and phi == HALF_PI:
        raise DivergenceError("D(pi/2, 1) diverges")
    if phi == 0.0:
        return 0.0
    s = math.sin(phi)
    c2 = math.cos(phi) ** 2
    return s * s * s * carlson_rd(c2, c2 + (1.0 - k) * (1.0 + k) * s * s, 1.0) / 3.0


def complete_k(k: float) -> float:
    """K(k), complete integral of the first kind; k = 1 diverges."""
    _check_modulus(k)
    if k == 1.0:
        raise DivergenceError("K(1) diverges")
    return _agm(k)[0]


def complete_e(k: float) -> float:
    """E(k), complete integral of the second kind; E(1) = 1 exactly."""
    _check_modulus(k)
    if k == 1.0:
        return 1.0
    return _agm(k)[1]


def complete_d(k: float) -> float:
    """D(k) = (K - E)/k^2, stable down to k = 0 where it equals pi/4."""
    _check_modulus(k)
    if k == 1.0:
        raise DivergenceError("D(1) diverges")
    return carlson_rd(0.0, (1.0 - k) * (1.0 + k), 1.0) / 3.0


def complementary_amplitude(phi1: float, kprime: float, upper_branch: bool = False) -> float:
    """Conjugate amplitude phi2 of phi1; kprime is the modulus of F and E.

    Principal branch (default): tan phi1 tan phi2 = 1/sqrt(1 - kprime^2),
    phi2 in [0, pi/2], as an atan2, which stays accurate as phi2 -> 0.  Then
    F(phi1) + F(phi2) = K and E(phi1) + E(phi2) = E + kprime^2 sin phi1
    sin phi2.  The upper branch reflects to pi - phi2.
    """
    _check_amplitude(phi1)
    if not (0.0 < kprime < 1.0):
        raise DomainError("complementary_amplitude needs 0 < kprime < 1")
    kc = math.sqrt((1.0 - kprime) * (1.0 + kprime))
    phi2 = math.atan2(math.cos(phi1), kc * math.sin(phi1))
    if upper_branch:
        return math.pi - phi2
    return phi2


def conjugate_delta(theta: float, k: float) -> float:
    """Principal complementary_amplitude on 0 < theta < pi/2: cot(delta) = k' tan(theta)."""
    if not (0.0 < theta < HALF_PI):
        raise DomainError("conjugate_delta needs 0 < theta < pi/2")
    if not (0.0 < k < 1.0):
        raise DomainError("conjugate_delta needs 0 < k < 1")
    return complementary_amplitude(theta, k)


def imaginary_modulus_reduce(phi: float, k: float) -> tuple:
    """Real-parameter reduction of the pair (F, E) at imaginary modulus i*k.

    Returns (f, e) with
      f = integral of 1/sqrt(1 + k^2 sin^2 t) over (0, phi)
      e = integral of   sqrt(1 + k^2 sin^2 t) over (0, phi)
    expressed through F and E at modulus k1 = k/sqrt(1 + k^2).
    """
    _check_amplitude(phi)
    if k < 0.0 or math.isnan(k):
        raise DomainError("imaginary_modulus_reduce needs k >= 0")
    if k == 0.0 or phi == 0.0:
        return (phi, phi)
    root = math.sqrt(1.0 + k * k)
    k1 = k / root
    k1p = 1.0 / root
    s = math.sin(phi)
    beta = math.asin(min(1.0, root * s / math.sqrt(1.0 + (k * s) ** 2)))
    sb = math.sin(beta)
    cb = math.cos(beta)
    dn = math.sqrt(1.0 - (k1 * sb) ** 2)
    f = k1p * incomplete_f(beta, k1)
    e = (incomplete_e(beta, k1) - k1 * k1 * sb * cb / dn) / k1p
    return (f, e)


def imaginary_argument_reduce(phi_hyp: float, k: float) -> tuple:
    """Real-parameter reduction of (F, E) along the imaginary argument axis.

    Returns (f, e) with
      f = integral of 1/sqrt(1 + k^2 sinh^2 t) over (0, phi_hyp)
      e = integral of   sqrt(1 + k^2 sinh^2 t) over (0, phi_hyp)
    expressed through F and E at the complementary modulus k' and the
    gudermannian amplitude delta = arctan(sinh phi_hyp).
    """
    if phi_hyp < 0.0 or math.isnan(phi_hyp):
        raise DomainError("imaginary_argument_reduce needs phi_hyp >= 0")
    if not (0.0 < k < 1.0):
        raise DomainError("imaginary_argument_reduce needs 0 < k < 1")
    if phi_hyp == 0.0:
        return (0.0, 0.0)
    kp = math.sqrt(1.0 - k * k)
    delta = math.atan(math.sinh(phi_hyp))
    sd = math.sin(delta)
    f = incomplete_f(delta, kp)
    e = f - incomplete_e(delta, kp) + math.tan(delta) * math.sqrt(1.0 - (kp * sd) ** 2)
    return (f, e)
