"""Regression tests against mpmath, an independent high-precision reference.

Each input here either failed at some point or sits at an edge of the
documented domain: the (pi/2, 1) corner of F and D, moduli within 1e-15 of
one, a thin disc whose amplitude rounds to pi/2, flat oblate spheroids, and
non-finite or overflowing Carlson arguments.  Skipped when mpmath is not installed.
"""

import math
import random

import pytest

from ellint import (
    DomainError,
    carlson_rd,
    carlson_rf,
    complete_e,
    complete_k,
    incomplete_d,
    incomplete_e,
    incomplete_f,
    oblate_area,
    surface_area,
)
from ellint.elliptic import HALF_PI, _rf_rd

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def _rel(got: float, ref) -> float:
    return float(abs(got - ref) / abs(ref))


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
    a, b, c = 5.0, 4.0, 1e-9
    inv2 = [mp.mpf(v) ** -2 for v in (a, b, c)]
    ref = 4 * mp.pi * a * b * c * mp.elliprg(*inv2)
    assert _rel(surface_area(a, b, c), ref) <= 1e-13


@pytest.mark.parametrize("r,c", [(1.0, 1e-9), (1.0, 1e-5), (1e150, 1.0), (1.0, 1e-300)])
def test_flat_oblate_area(r, c):
    # r - sqrt(r^2 - c^2) rounded to zero and raised ZeroDivisionError
    ref = 4 * mp.pi * r * r * c * mp.elliprg(mp.mpf(r) ** -2, mp.mpf(r) ** -2, mp.mpf(c) ** -2)
    assert _rel(oblate_area(r, c), ref) <= 5e-16
    assert surface_area(r, r, c) == oblate_area(r, c)


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
