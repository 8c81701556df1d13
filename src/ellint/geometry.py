"""Ellipsoid surface areas.

surface_area is the accurate path, for every shape and axis order.  The
paper's closed forms stay as independent cross-checks: oblate_area and
prolate_area for spheroids, triaxial_area for descending axes (and, on
reversed axes, ascending ones); eccentricities and barred_params give their
parameters.  Axis differences are formed from the axes (x - y), never from
rounded ratios.
"""

import math
from typing import NamedTuple

from .elliptic import _fed, _rf_rd
from .errors import DomainError, require_axes

TWO_PI = 2.0 * math.pi
_NEEDLE_YZ = 2.0 ** -500
_TINY_M = 2.0 ** -600


class EccentricityPair(NamedTuple):
    e1: float
    e2: float


class BarredPair(NamedTuple):
    f1: float
    f2: float


def eccentricities(a: float, b: float, c: float) -> EccentricityPair:
    """(e1, e2) for descending axes: e_i^2 = 1 - c^2/axis_i^2.

    Requires a >= b >= c with a > c; then 1 > e1 >= e2 >= 0.
    """
    require_axes(a, b, c)
    if not (a >= b >= c) or not a > c:
        raise DomainError("eccentricities needs a >= b >= c with a > c")
    e1 = math.sqrt((a - c) * (a + c)) / a
    e2 = math.sqrt((b - c) * (b + c)) / b
    return EccentricityPair(e1, e2)


def barred_params(a: float, b: float, c: float) -> BarredPair:
    """(f1, f2) for ascending axes: f1 = sqrt(c^2-a^2)/a, f2 = sqrt(c^2-b^2)/b.

    Requires a <= b <= c with a < c; then inf > f1 >= f2 >= 0.
    """
    require_axes(a, b, c)
    if not (a <= b <= c) or not a < c:
        raise DomainError("barred_params needs a <= b <= c with a < c")
    f1 = math.sqrt((c - a) * (c + a)) / a
    f2 = math.sqrt((c - b) * (c + b)) / b
    return BarredPair(f1, f2)


def oblate_area(r: float, c: float) -> float:
    """Oblate spheroid a = b = r > c, via the elementary log form in the
    ratio t = c/r: S = 2 pi r^2 [1 + t^2/sqrt(1-t^2) log((1 + sqrt(1-t^2))/t)].
    The log is taken as log1p(root) - log(t), two terms that add, so a tiny t
    neither divides by zero nor overflows the quotient; log t is
    log c - log r where c/r underflows to 0.0."""
    require_axes(r, c)
    if not r > c:
        raise DomainError("oblate_area needs r > c")
    t = c / r
    root = math.sqrt((r - c) / r * (1.0 + t))
    log_t = math.log(t) if t else math.log(c) - math.log(r)
    return TWO_PI * r * (r * (1.0 + t * t / root * (math.log1p(root) - log_t)))


def prolate_area(c: float, r: float) -> float:
    """Prolate spheroid c > a = b = r, via the elementary arcsin form in the
    ratio t = r/c: S = 2 pi c^2 [t^2 + t arcsin(root)/root], root = sqrt(1-t^2).
    arcsin(root) is evaluated as atan2(root, t), because arcsin is
    ill-conditioned as root -> 1.  The arcsin term is formed as c r, not as
    c^2 t, so a ratio t below the float range loses nothing."""
    require_axes(c, r)
    if not c > r:
        raise DomainError("prolate_area needs c > r")
    t = r / c
    root = math.sqrt((c - r) / c * (1.0 + t))
    return TWO_PI * (c * (c * t * t) + c * r * math.atan2(root, t) / root)


def triaxial_area(a: float, b: float, c: float) -> float:
    """Descending-axes closed form, a >= b >= c with a > c.

    S = 2 pi c^2 + 2 pi b / sqrt(a^2-c^2) * [(a^2-c^2) E(phi,k) + c^2 F(phi,k)]
    with phi = arcsin e1 and k = e2/e1.  Term by term this is Legendre's 1811
    form S = 2 pi c^2 + (2 pi a b / sin nu) [(c^2/a^2) F(nu, b')
    + ((a^2-c^2)/a^2) E(nu, b')] with cos nu = c/a, b'^2 = (b^2-c^2)/(b^2 sin^2 nu).
    With a and c interchanged it is the paper's c > b > a form in the barred
    parameters, S = 2 pi a^2 {1 + sqrt((1+f1^2)/(1+f2^2)) [F(phib,kb)/f1
    + f1 E(phib,kb)]} with phib = arctan f1, kb = sqrt(1 - f2^2/f1^2): that
    area is triaxial_area(c, b, a).  Written in the ratios y = b/a and
    z = c/a as S = 2 pi (c c + (a b)(e1 E) + b c (z F / e1)), whose leading
    term a b stays in the float range wherever S does, as a^2 and 2 pi a need not.
    F and E come from one fused Carlson loop at sin phi = e1,
    cos^2 phi = z^2 and k'^2 = (c/b)^2 (1 - y^2) / e1^2, with no arcsin: then
    1 - k^2 sin^2 phi = (c/b)^2 stays positive even for thin discs c << b.
    Below c/b of about 1e-162 both cos^2 phi and k'^2 underflow to zero, the
    (pi/2, 1) corner of F, and the loop raises DomainError.  On thin discs F
    and E sit near that corner: at (679.69, 401.30, 0.00158) the result is
    7.4e-15 from mpmath's 4 pi abc R_G, where surface_area, the accurate
    path with no such limit, is 2.2e-16 from it.
    """
    require_axes(a, b, c)
    if not (a >= b >= c) or not a > c:
        raise DomainError("triaxial_area needs a >= b >= c with a > c")
    y, z = b / a, c / a
    e1_sq = (a - c) / a * (1.0 + z)
    e1 = math.sqrt(e1_sq)
    f, e, _ = _fed(e1, z * z, (c / b) ** 2 * ((a - b) / a * (1.0 + y)) / e1_sq)
    return TWO_PI * (c * c + (a * b) * (e1 * e) + b * c * (z * f / e1))


def _g(x: float, m: float, z: float) -> float:
    """2 R_G(x, m, z) for 0 <= x <= m <= z, from one fused Carlson loop.

    DLMF 19.21.10 pivoted on the middle argument m,
    2 R_G = m R_F + (m - x)(z - m) R_D(x, z, m) / 3 + sqrt(x z / m),
    so that all three terms add.  Below _TINY_M, 2 R_G = sqrt(z) to within
    a relative m log(z/m) / z, the value of 2 R_G(0, 0, z).
    """
    if m < _TINY_M:
        return math.sqrt(z)
    rf, rd = _rf_rd(x, z, m)
    return m * rf + (m - x) * (z - m) * rd / 3.0 + math.sqrt(x / m * z)


def surface_area(a: float, b: float, c: float) -> float:
    """Surface area for any positive axis triple, in any order.

    S = 4 pi abc R_G(a^-2, b^-2, c^-2) (DLMF 19.33.1) for every shape.  With
    the axes sorted s0 >= s1 >= s2 and the ratios y = s1/s0, z = s2/s0,
    homogeneity gives S = 4 pi s0^2 R_G(y^2 z^2, z^2, y^2): every argument
    lies in (0, 1], so only the final product can overflow (to inf) or
    underflow.  Below y z = 2^-500 the smallest argument is dropped, for
    needles and discs whose y^2 z^2 would underflow:
    S = 4 pi s0 s1 R_G(0, (s2/s1)^2, 1), off by a relative O(y z).  Sorting
    first makes the result exactly permutation invariant.
    """
    require_axes(a, b, c)
    s0, s1, s2 = sorted((a, b, c), reverse=True)
    y, z = s1 / s0, s2 / s0
    if y * z < _NEEDLE_YZ:
        return TWO_PI * (s0 * s1) * _g(0.0, (s2 / s1) ** 2, 1.0)
    return TWO_PI * s0 * (s0 * _g((y * z) ** 2, z * z, y * y))
