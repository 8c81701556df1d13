"""Legendre-form elliptic integrals via Carlson symmetric forms and the AGM.

Carlson's R_F and R_D by duplication from one loop (_rf_rd), which
carlson_rf, carlson_rd, the R_G area core of geometry and _fed read; _fed,
the one amplitude entry, gives every F, E and D of the library (incomplete,
complete D, imaginary modulus or argument, triaxial area, identity closed
forms) at an amplitude taken as its sine and cosine squared.  The complete
K and E come from the AGM (_agm); the conjugate amplitude from an atan2.
"""

import math

from .errors import DivergenceError, DomainError

HALF_PI = math.pi / 2.0

# Duplication runs until 4^-m * Q < |A_m|; these prefactors put the Taylor
# tail error below 1 ulp (Q scales the initial spread of the arguments).
_RF_PREF = (3.0 * 1e-16) ** (-1.0 / 6.0)
_RD_PREF = (0.25 * 1e-16) ** (-1.0 / 6.0)

# A triple whose sum reaches _HUGE (or is not finite) is scaled by 2^-32
# first, so that neither the sum nor the spread Q overflows, and one whose sum
# is below _TINY by 2^32, so that R_D's terms in z^1.5 do not underflow; the
# results are scaled back by homogeneity, R_F(x) = sqrt(l) R_F(l x) and
# R_D(x) = l^1.5 R_D(l x).
_HUGE = 2.0 ** 1000
_TINY = 2.0 ** -600

# The AGM stops once c_n <= _AGM_TOL * a_n: the next step would move a_n by
# about (c_n/a_n)^2/4 relative, below half an ulp.
_AGM_TOL = 2.0 ** -27

# asinh of the largest double: the largest phi_hyp with sinh and cosh finite.
_ASINH_MAX = 710.4758600739439


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z); finite, nonnegative, at most one argument zero."""
    # R_F is symmetric: sorted, a zero lands in x, and z > 0 is the largest, so
    # that _rf_rd's terms in z^1.5 only underflow where its _TINY rescale acts
    x, y, z = sorted((x, y, z))
    if x < 0.0 or y == 0.0:
        raise DomainError("carlson_rf needs nonnegative args, at most one zero")
    return _rf_rd(x, y, z)[0]


def _rf_rd(x: float, y: float, z: float) -> tuple:
    """(R_F(x, y, z), R_D(x, y, z)) from one duplication loop.

    Both share lambda at every step; the loop tracks R_F's mean a and
    recovers R_D's as a - 4^-m (aF0 - aD0), running until both stopping
    rules hold.  Domain as carlson_rd: finite x, y >= 0 (not both zero), z > 0.
    """
    if min(x, y) < 0.0 or z <= 0.0 or (x + y) == 0.0:
        raise DomainError("carlson_rd needs x, y >= 0 (not both zero) and z > 0")
    s = x + y + z
    if not _TINY <= s < _HUGE:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DomainError(f"Carlson arguments must be finite, got {(x, y, z)!r}")
        mult = 2.0 ** (-32 if s >= _HUGE else 32)
        rf, rd = _rf_rd(x * mult, y * mult, z * mult)
        return (rf * math.sqrt(mult), rd * (mult * math.sqrt(mult)))
    af0 = s / 3.0
    ad0 = (s + 2.0 * z) / 5.0
    gap = af0 - ad0
    q = max(_RF_PREF * max(abs(af0 - x), abs(af0 - y), abs(af0 - z)),
            _RD_PREF * max(abs(ad0 - x), abs(ad0 - y), abs(ad0 - z)) + abs(gap))
    x0, y0, z0, a = x, y, z, af0
    scale = 1.0
    tail = 0.0
    try:
        while scale * q >= a:
            sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
            lam = sx * (sy + sz) + sy * sz
            tail += scale / (sz * (z + lam))
            x = 0.25 * (x + lam)
            y = 0.25 * (y + lam)
            z = 0.25 * (z + lam)
            a = 0.25 * (a + lam)
            scale *= 0.25
    except ZeroDivisionError:
        # sz (z + lam) underflowed: z is so far below x + y that this one
        # term of R_D, 3 scale / (sz (z + lam)), is above the float range
        return (carlson_rf(x0, y0, z0), math.inf)
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
    """Carlson R_D(x, y, z) = R_J(x, y, z, z); finite x, y >= 0, z > 0.
    A value above the float range, where z is tiny beside x + y, is inf."""
    return _rf_rd(x, y, z)[1]


def _agm(k: float, kc: float) -> tuple:
    """(K(k), E(k)) for 0 <= k < 1 and kc = k' by the arithmetic-geometric mean,
    started at kc as given, so that a caller holding k' exactly keeps it.

    a_0 = 1, b_0 = kc, c_0 = k; K = pi/(2 a_N) and
    E = K (1 - sum 2^(n-1) c_n^2) (DLMF 19.8.1, 19.8.6).  c_(n+1) is
    formed as c_n^2/(4 a_(n+1)), free of the cancellation in (a_n - b_n)/2.
    Above k = 0.9, where 1 - sum cancels as k -> 1, the mean is run again at
    the complementary modulus (b_0 = k, c_0 = kc), and E comes from
    Legendre's relation (DLMF 19.7.1) as E = pi/(2 K') + K sum', a sum of
    positive terms.
    """
    a, b, c = 1.0, kc, k
    kk = None
    while True:
        weight = 0.5
        csum = weight * c * c
        while c > _AGM_TOL * a:
            a, b = 0.5 * (a + b), math.sqrt(a * b)
            c = 0.25 * c * c / a
            weight *= 2.0
            csum += weight * c * c
        if kk is not None:
            return (kk, a + kk * csum)  # a = pi/(2 K')
        kk = HALF_PI / a
        if k <= 0.9:
            return (kk, kk * (1.0 - csum))
        a, b, c = 1.0, k, kc


def _fed(s: float, c2: float, kc2: float) -> tuple:
    """(F, E, D) at the amplitude with sine s and cosine squared c2, for
    kc2 = k'^2, from one R_F/R_D pass; D = (F - E)/k^2 = s^3 R_D/3.

    The one place an amplitude becomes Legendre integrals: callers take s
    and c2 from their inputs, with no asin round trip; 1 - k^2 s^2 is
    c2 + k'^2 s^2, free of cancellation.  Needs c2 > 0 or kc2 > 0, which
    excludes only the (pi/2, 1) corner.
    """
    s2 = s * s
    rf, rd = _rf_rd(c2, c2 + kc2 * s2, 1.0)
    f = s * rf
    return (f, f - (1.0 - kc2) * s * s2 * rd / 3.0, s * s2 * rd / 3.0)


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
    return _fed(math.sin(phi), math.cos(phi) ** 2, (1.0 - k) * (1.0 + k))[0]


def incomplete_e(phi: float, k: float) -> float:
    """E(phi, k) = integral of sqrt(1 - k^2 sin^2 t) over (0, phi)."""
    _check_amplitude(phi)
    _check_modulus(k)
    if k == 1.0 and phi == HALF_PI:
        return 1.0
    return _fed(math.sin(phi), math.cos(phi) ** 2, (1.0 - k) * (1.0 + k))[1]


def incomplete_d(phi: float, k: float) -> float:
    """D(phi, k) = (F - E)/k^2 = integral of sin^2 t/sqrt(1 - k^2 sin^2 t).

    Evaluated through R_D, which is uniformly stable: at k = 0 it returns
    the analytic limit (phi - sin phi cos phi)/2 with no cancellation.
    """
    _check_amplitude(phi)
    _check_modulus(k)
    if k == 1.0 and phi == HALF_PI:
        raise DivergenceError("D(pi/2, 1) diverges")
    return _fed(math.sin(phi), math.cos(phi) ** 2, (1.0 - k) * (1.0 + k))[2]


def complete_k(k: float) -> float:
    """K(k), complete integral of the first kind; k = 1 diverges."""
    _check_modulus(k)
    if k == 1.0:
        raise DivergenceError("K(1) diverges")
    return _agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[0]


def complete_e(k: float) -> float:
    """E(k), complete integral of the second kind; E(1) = 1 exactly."""
    _check_modulus(k)
    if k == 1.0:
        return 1.0
    return _agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[1]


def complete_d(k: float) -> float:
    """D(k) = (K - E)/k^2, stable down to k = 0 where it equals pi/4."""
    _check_modulus(k)
    if k == 1.0:
        raise DivergenceError("D(1) diverges")
    return _fed(1.0, 0.0, (1.0 - k) * (1.0 + k))[2]


def complementary_amplitude(phi1: float, kprime: float) -> float:
    """Conjugate amplitude phi2 of phi1; kprime is the modulus of F and E.

    tan phi1 tan phi2 = 1/sqrt(1 - kprime^2), phi2 in [0, pi/2], as an
    atan2, which stays accurate as phi2 -> 0.  Then F(phi1) + F(phi2) = K and
    E(phi1) + E(phi2) = E + kprime^2 sin phi1 sin phi2.
    """
    _check_amplitude(phi1)
    if not (0.0 < kprime < 1.0):
        raise DomainError("complementary_amplitude needs 0 < kprime < 1")
    kc = math.sqrt((1.0 - kprime) * (1.0 + kprime))
    return math.atan2(math.cos(phi1), kc * math.sin(phi1))


def imaginary_modulus_reduce(phi: float, k: float) -> tuple:
    """(f, e), the integrals of 1/sqrt(1 + k^2 sin^2 t) and sqrt(1 + k^2 sin^2 t)
    over (0, phi): F and E at parameter m = -k^2 (DLMF 19.25(i)), one fused
    call with k'^2 = 1 + k^2.  Needs k >= 0 with k^2 finite (k <= about 1.34e154).
    """
    _check_amplitude(phi)
    if not (k >= 0.0 and math.isfinite(k * k)):
        raise DomainError(f"imaginary_modulus_reduce needs 0 <= k <= 1.34e154, got {k!r}")
    if k == 0.0:
        return (phi, phi)
    return _fed(math.sin(phi), math.cos(phi) ** 2, 1.0 + k * k)[:2]


def imaginary_argument_reduce(phi_hyp: float, k: float) -> tuple:
    """(f, e), the integrals of 1/sqrt(1 + k^2 sinh^2 t) and sqrt(1 + k^2 sinh^2 t)
    over (0, phi_hyp), 0 < k < 1: F and E at modulus k' and the gudermannian
    amplitude delta, given by sin = tanh phi_hyp and cos^2 = sech^2 phi_hyp,
    with tan delta = sinh phi_hyp.  Needs phi_hyp <= 710.4758600739439.
    """
    if not (0.0 <= phi_hyp <= _ASINH_MAX):
        raise DomainError(f"imaginary_argument_reduce needs 0 <= phi_hyp <= {_ASINH_MAX!r}, "
                          f"got {phi_hyp!r}")
    if not (0.0 < k < 1.0):
        raise DomainError("imaginary_argument_reduce needs 0 < k < 1")
    th = math.tanh(phi_hyp)
    sech2 = (1.0 / math.cosh(phi_hyp)) ** 2
    f, e, _ = _fed(th, sech2, k * k)
    return (f, f - e + math.sinh(phi_hyp) * math.sqrt(sech2 + (k * th) ** 2))
