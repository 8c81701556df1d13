"""Regression tests against mpmath, an independent high-precision reference.

Each input here either failed at some point or sits at an edge of the
documented domain: the (pi/2, 1) corner of F and D, moduli within 1e-15 of
one, a thin disc whose amplitude rounds to pi/2, flat oblate and long prolate
spheroids, axis triples over the whole float range, conjugate amplitudes near
zero, and non-finite or overflowing Carlson arguments.  Skipped when mpmath is not installed.
"""

import math
import random
import sys

import pytest

from ellint import (
    DomainError,
    carlson_rd,
    carlson_rf,
    complementary_amplitude,
    complete_e,
    complete_k,
    incomplete_d,
    incomplete_e,
    incomplete_f,
    oblate_area,
    prolate_area,
    surface_area,
    surface_area_ascending,
    surface_area_legendre,
    triaxial_area,
)
from ellint.elliptic import HALF_PI, _rf_rd

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def _rel(got: float, ref) -> float:
    return float(abs(got - ref) / abs(ref))


def _area_ref(a: float, b: float, c: float):
    # 4 pi abc R_G(a^-2, b^-2, c^-2), DLMF 19.33.1
    inv2 = [mp.mpf(v) ** -2 for v in (a, b, c)]
    return 4 * mp.pi * mp.mpf(a) * b * c * mp.elliprg(*inv2)


def _carlson_grid() -> list:
    rng = random.Random(20060605)
    out = []
    for i in range(60):
        x, y, z = (10.0 ** rng.uniform(-8.0, 8.0) for _ in range(3))
        if i % 5 == 0:
            x = 0.0
        out.append((x, y, z))
    return out


@pytest.mark.parametrize("x,y,z", _carlson_grid())
def test_carlson_against_mpmath(x, y, z):
    rf, rd = mp.elliprf(x, y, z), mp.elliprd(x, y, z)
    assert _rel(carlson_rf(x, y, z), rf) <= 2e-15
    assert _rel(carlson_rd(x, y, z), rd) <= 2e-15
    assert _rel(_rf_rd(x, y, z)[0], rf) <= 2e-15


@pytest.mark.parametrize("k", [1e-9, 0.5, 1.0 - 1e-9, 1.0 - 1e-15])
def test_complete_against_mpmath(k):
    m = mp.mpf(k) ** 2
    assert _rel(complete_k(k), mp.ellipk(m)) <= 5e-15
    assert _rel(complete_e(k), mp.ellipe(m)) <= 5e-15


def test_near_corner_first_and_third_kind():
    # 1 - (k sin phi)^2 cancelled here: F was off by 1.7e-8 and D by 1.8e-8
    phi, k = HALF_PI - 1e-9, 1.0 - 1e-12
    m = mp.mpf(k) ** 2
    f, e = mp.ellipf(phi, m), mp.ellipe(phi, m)
    assert _rel(incomplete_f(phi, k), f) <= 2e-15
    assert _rel(incomplete_d(phi, k), (f - e) / m) <= 2e-15
    # E = F - k^2 D cancels here, by about F/E = 15, so E keeps fewer bits
    assert _rel(incomplete_e(phi, k), e) <= 1e-14


def test_thin_disc_area():
    # asin(e1) rounded to pi/2 with k = 1 and raised DivergenceError
    assert _rel(surface_area(5.0, 4.0, 1e-9), _area_ref(5.0, 4.0, 1e-9)) <= 1e-13


@pytest.mark.parametrize("r,c", [(1.0, 1e-9), (1.0, 1e-5), (1e150, 1.0), (1.0, 1e-300)])
def test_flat_oblate_area(r, c):
    # r - sqrt(r^2 - c^2) rounded to zero and raised ZeroDivisionError
    ref = _area_ref(r, r, c)
    assert _rel(oblate_area(r, c), ref) <= 5e-16
    assert _rel(surface_area(r, r, c), ref) <= 5e-16


def _long_prolates() -> list:
    # log-uniform centres and aspect ratios c/r up to 1e12
    rng = random.Random(889051)
    out = [(889051.28, 0.01053)]
    for _ in range(40):
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        out.append((c, c * 10.0 ** -rng.uniform(0.01, 12.0)))
    return out


@pytest.mark.parametrize("c,r", _long_prolates())
def test_long_prolate_area(c, r):
    # asin(root / c) was ill-conditioned as root / c -> 1: (889051.28,
    # 0.01053, 0.01053) was off by 1.9e-9 and the sweep by up to 1.1e-8
    ref = _area_ref(c, r, r)
    assert _rel(prolate_area(c, r), ref) <= 1e-15
    assert _rel(surface_area(c, r, r), ref) <= 1e-15


@pytest.mark.parametrize("fn", [carlson_rf, carlson_rd, _rf_rd])
@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
                                  (1.0, -math.inf, 1.0), (math.inf, -math.inf, 1.0)])
def test_non_finite_arguments_raise(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("x,y,z", [(1e308, 1e308, 1e308), (1e308, 1e308, 1e-4),
                                   (0.0, 1.7e308, 1.0)])
def test_overflowing_sum_is_rescaled(x, y, z):
    assert _rel(carlson_rf(x, y, z), mp.elliprf(x, y, z)) <= 2e-15
    # R_D of the first triple underflows to 0.0, as its reference does
    rd = carlson_rd(x, y, z)
    assert rd == pytest.approx(float(mp.elliprd(x, y, z)), rel=2e-15, abs=0.0)
    assert _rel(_rf_rd(x, y, z)[0], mp.elliprf(x, y, z)) <= 2e-15


@pytest.mark.parametrize("a,b,c", [(1e-150, 1e-150, 3e-151), (1e-150, 3e-151, 3e-151),
                                   (1e154, 1e153, 1e153), (1e150, 1e149, 1e148),
                                   (3e-150, 2e-150, 1e-150),
                                   (1.0, 0.5, 1e-170), (1.0, 1e-160, 1e-161),
                                   (1.0, 1.0, 1e-300), (1e200, 1e-200, 1e-200)])
def test_extreme_scale_area(a, b, c):
    # squares of the axes overflowed or underflowed: the first three returned
    # 6.28e-300, 5.65e-301 and inf, the next two raised DomainError and
    # ZeroDivisionError; in the last four squared axis ratios underflow, and
    # (1, 0.5, 1e-170) raised DomainError and (1, 1e-160, 1e-161) was off by
    # 1.6e-4
    assert _rel(surface_area(a, b, c), _area_ref(a, b, c)) <= 1e-15


def test_area_beyond_float_range_is_inf():
    a, b, c = 1e154, 1e154, 1e153
    assert _area_ref(a, b, c) > sys.float_info.max
    assert surface_area(a, b, c) == math.inf
    # the area of subnormal axes underflows to zero
    assert surface_area(5e-324, 5e-324, 5e-324) == 0.0


def _area_close(got: float, ref) -> bool:
    # a normal area within 1e-15, an area above the float range inf, and a
    # subnormal one within two units of the smallest subnormal, 2^-1074
    if ref > sys.float_info.max:
        return got == math.inf
    if ref < sys.float_info.min:
        return abs(got - ref) <= 2.0 ** -1073
    return _rel(got, ref) <= 1e-15


def test_area_over_the_float_range():
    rng = random.Random(19331)
    for _ in range(300):
        axes = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3)]
        assert _area_close(surface_area(*axes), _area_ref(*axes)), axes


@pytest.mark.parametrize("fn,args,axes", [
    (oblate_area, (1e-170, 3e-171), (1e-170, 1e-170, 3e-171)),
    (prolate_area, (1e-170, 3e-171), (1e-170, 3e-171, 3e-171)),
    (triaxial_area, (1e150, 1e149, 1e148), (1e150, 1e149, 1e148)),
    (triaxial_area, (3e-150, 2e-150, 1e-150), (3e-150, 2e-150, 1e-150))])
def test_spheroid_and_triaxial_forms_at_extreme_scales(fn, args, axes):
    # squares of the axes overflowed or underflowed: the spheroids and the
    # last triple raised ZeroDivisionError, the third DomainError; the
    # spheroid areas lie below the subnormal range
    assert _area_close(fn(*args), _area_ref(*axes))


def test_triaxial_form_domain_ends_at_the_corner():
    # at c/b = 1e-170 cos^2 phi and k'^2 both underflow: F's (pi/2, 1) corner
    with pytest.raises(DomainError):
        triaxial_area(1.0, 0.5, 1e-170)


@pytest.mark.parametrize("a,b,c", [(1e150, 1e149, 1e148), (1e100, 1e99, 1e98),
                                   (3e-150, 2e-150, 1e-150), (3e-110, 2e-110, 1e-110)])
def test_paper_forms_at_extreme_scales(a, b, c):
    # both forms squared the axes: the first two triples raised DomainError
    # (nan), the last two ZeroDivisionError
    ref = _area_ref(a, b, c)
    assert _rel(surface_area_legendre(a, b, c), ref) <= 1e-15
    assert _rel(surface_area_ascending(c, b, a), ref) <= 1e-15


def test_paper_forms_are_the_triaxial_form():
    rng = random.Random(1811)
    for _ in range(200):
        a, b, c = sorted((10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)), reverse=True)
        assert surface_area_legendre(a, b, c) == triaxial_area(a, b, c)
        assert surface_area_ascending(c, b, a) == triaxial_area(a, b, c)


def test_complementary_amplitude_against_mpmath():
    # tan phi1 tan phi2 = 1/sqrt(1 - k^2); through acos the principal branch
    # lost accuracy as phi2 -> 0, i.e. phi1 -> pi/2
    rng = random.Random(4243)
    for i in range(400):
        phi1 = HALF_PI - 10.0 ** rng.uniform(-9.0, 0.0) if i % 2 else rng.uniform(0.0, HALF_PI)
        k = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0) if i % 3 == 0 else rng.uniform(1e-3, 0.999)
        p, kk = mp.mpf(phi1), mp.mpf(k)
        ref = mp.atan2(mp.cos(p), mp.sqrt(1 - kk * kk) * mp.sin(p))
        assert _rel(complementary_amplitude(phi1, k), ref) <= 1e-14, (phi1, k)
