"""Ellipsoid surface areas in every axis-ordering regime.

A triaxial ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 has closed-form surface
area in terms of incomplete elliptic integrals.  Two parametrizations are
covered: descending axes a > b > c (eccentricities e1, e2) and ascending
axes a < b < c (the barred parameters f1, f2).  Spheroid limits use the
elementary log/arcsin forms.  Squared-axis differences are always computed
as (x - y)(x + y), which stays exact for nearly equal axes.
"""

import math
from enum import Enum
from typing import NamedTuple

from .elliptic import _fe_sc
from .errors import DomainError

TWO_PI = 2.0 * math.pi


class ShapeClass(Enum):
    SPHERE = "sphere"
    OBLATE = "oblate"
    PROLATE = "prolate"
    TRIAXIAL = "triaxial"


class EccentricityPair(NamedTuple):
    e1: float
    e2: float


class BarredPair(NamedTuple):
    f1: float
    f2: float


def _check_axes(*axes: float) -> None:
    for v in axes:
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"semi-axis {v!r} must be positive and finite")


def classify(a: float, b: float, c: float, rel_tol: float = 1e-9) -> ShapeClass:
    """Classify an axis triple by its pairwise relative gaps.

    Axes may arrive in any order.  Two axes coincide when their relative
    gap is at most rel_tol; coincidence of the two largest gives OBLATE, of
    the two smallest PROLATE, of all three SPHERE.
    """
    _check_axes(a, b, c)
    if not (0.0 < rel_tol <= 1e-3):
        raise DomainError("rel_tol must lie in (0, 1e-3]")
    s0, s1, s2 = sorted((a, b, c), reverse=True)
    if (s0 - s2) / s0 <= rel_tol:
        return ShapeClass.SPHERE
    if (s0 - s1) / s0 <= rel_tol:
        return ShapeClass.OBLATE
    if (s1 - s2) / s1 <= rel_tol:
        return ShapeClass.PROLATE
    return ShapeClass.TRIAXIAL


def eccentricities(a: float, b: float, c: float) -> EccentricityPair:
    """(e1, e2) for descending axes: e_i^2 = 1 - c^2/axis_i^2.

    Requires a >= b >= c with a > c; then 1 > e1 >= e2 >= 0.
    """
    _check_axes(a, b, c)
    if not (a >= b >= c) or not a > c:
        raise DomainError("eccentricities needs a >= b >= c with a > c")
    e1 = math.sqrt((a - c) * (a + c)) / a
    e2 = math.sqrt((b - c) * (b + c)) / b
    return EccentricityPair(e1, e2)


def barred_params(a: float, b: float, c: float) -> BarredPair:
    """(f1, f2) for ascending axes: f1 = sqrt(c^2-a^2)/a, f2 = sqrt(c^2-b^2)/b.

    Requires a <= b <= c with a < c; then inf > f1 >= f2 >= 0.
    """
    _check_axes(a, b, c)
    if not (a <= b <= c) or not a < c:
        raise DomainError("barred_params needs a <= b <= c with a < c")
    f1 = math.sqrt((c - a) * (c + a)) / a
    f2 = math.sqrt((c - b) * (c + b)) / b
    return BarredPair(f1, f2)


def oblate_area(r: float, c: float) -> float:
    """Oblate spheroid a = b = r > c, via the elementary log form; the log term
    uses (r + root)(r - root) = c^2, as r - root rounds to zero when c << r."""
    _check_axes(r, c)
    if not r > c:
        raise DomainError("oblate_area needs r > c")
    root = math.sqrt((r - c) * (r + c))
    return TWO_PI * r * r + TWO_PI * r * c * c / root * math.log((r + root) / c)


def prolate_area(c: float, r: float) -> float:
    """Prolate spheroid c > a = b = r, via the elementary arcsin form."""
    _check_axes(c, r)
    if not c > r:
        raise DomainError("prolate_area needs c > r")
    root = math.sqrt((c - r) * (c + r))
    return TWO_PI * r * r + TWO_PI * r * c * c / root * math.asin(root / c)


def triaxial_area(a: float, b: float, c: float) -> float:
    """Descending-axes closed form.

    S = 2 pi c^2 + 2 pi b / sqrt(a^2-c^2) * [(a^2-c^2) E(phi,k) + c^2 F(phi,k)]
    with phi = arcsin e1 and k = e2/e1.  F and E come from one fused Carlson
    loop at sin phi = e1, cos^2 phi = (c/a)^2 and
    k'^2 = c^2 (a^2-b^2) / (b^2 (a^2-c^2)), with no arcsin: then
    1 - k^2 sin^2 phi = (c/b)^2 stays positive even for thin discs c << b.
    """
    _check_axes(a, b, c)
    if not (a >= b >= c) or not a > c:
        raise DomainError("triaxial_area needs a >= b >= c with a > c")
    d_ac = (a - c) * (a + c)
    root = math.sqrt(d_ac)
    f, e = _fe_sc(root / a, (c / a) ** 2, c * c * (a - b) * (a + b) / (b * b * d_ac))
    return TWO_PI * c * c + TWO_PI * b / root * (d_ac * e + c * c * f)


def surface_area_ascending(a: float, b: float, c: float) -> float:
    """Ascending-axes closed form in the barred parameters (f1, f2).

    S = 2 pi a^2 { 1 + sqrt((1+f1^2)/(1+f2^2)) [ F(phib,kb)/f1
        + f1 E(phib,kb) ] } with phib = arctan f1, kb = sqrt(1 - f2^2/f1^2).
    Requires strictly ascending axes a < b < c.
    """
    _check_axes(a, b, c)
    if not (a < b < c):
        raise DomainError("surface_area_ascending needs strictly ascending a < b < c")
    f1, f2 = barred_params(a, b, c)
    d_ca = (c - a) * (c + a)
    # sin phib = sqrt(c^2-a^2)/c, cos^2 phib = (a/c)^2 and
    # kb'^2 = a^2 (c^2-b^2) / (b^2 (c^2-a^2)) via exact axis differences
    fe, ee = _fe_sc(math.sqrt(d_ca) / c, (a / c) ** 2,
                    a * a * (c - b) * (c + b) / (b * b * d_ca))
    pref = math.sqrt((1.0 + f1 * f1) / (1.0 + f2 * f2))
    return TWO_PI * a * a * (1.0 + pref * (fe / f1 + f1 * ee))


def surface_area_legendre(a: float, b: float, c: float) -> float:
    """Legendre's 1811 descending-axes form.

    S = 2 pi c^2 + (2 pi a b / sin nu) [ (c^2/a^2) F(nu, b') +
        ((a^2-c^2)/a^2) E(nu, b') ] with cos nu = c/a and
    b'^2 = (b^2-c^2)/(b^2 sin^2 nu).  Requires strictly descending axes.
    """
    _check_axes(a, b, c)
    if not (a > b > c):
        raise DomainError("surface_area_legendre needs strictly descending a > b > c")
    d_ac = (a - c) * (a + c)
    sin_nu = math.sqrt(d_ac) / a
    # 1 - b'^2 = c^2 (a^2-b^2) / (b^2 (a^2-c^2))
    fe, ee = _fe_sc(sin_nu, (c / a) ** 2, c * c * (a - b) * (a + b) / (b * b * d_ac))
    return (TWO_PI * c * c
            + TWO_PI * a * b / sin_nu
            * ((c * c / (a * a)) * fe + (d_ac / (a * a)) * ee))


def surface_area(a: float, b: float, c: float, rel_tol: float = 1e-9) -> float:
    """Surface area for any positive axis triple, in any order.

    Sorts the axes, classifies the shape with rel_tol, and dispatches:
    sphere -> 4 pi r^2 (r the mean axis), oblate/prolate -> elementary
    spheroid forms, triaxial -> the descending-axes elliptic form.  Sorting
    first makes the result exactly permutation invariant.
    """
    _check_axes(a, b, c)
    s0, s1, s2 = sorted((a, b, c), reverse=True)
    shape = classify(s0, s1, s2, rel_tol)
    if shape is ShapeClass.SPHERE:
        r = (s0 + s1 + s2) / 3.0
        return 4.0 * math.pi * r * r
    if shape is ShapeClass.OBLATE:
        return oblate_area(0.5 * (s0 + s1), s2)
    if shape is ShapeClass.PROLATE:
        return prolate_area(s0, 0.5 * (s1 + s2))
    return triaxial_area(s0, s1, s2)
