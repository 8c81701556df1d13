"""Tests for ellipsoid parametrizations and area forms.

Frozen area values come from 30-digit evaluation of the defining surface
integral; the closed forms are additionally cross-checked against the
quadrature oracle, over the whole float range, and against each other.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellint import (
    BarredPair,
    DomainError,
    EccentricityPair,
    barred_params,
    eccentricities,
    oblate_area,
    prolate_area,
    surface_area,
    surface_area_quadrature,
    triaxial_area,
    verify,
)

SQ3 = math.sqrt(3.0)

FROZEN_AREAS = [
    ((2.0, 1.5, 1.0), 27.886442473502580631),
    ((0.5, 1.0, 3.0), 23.297365007925917753),
    ((3.0, 2.0, 1.0), 48.882146302582059696),
    ((2.0, 2.0, 1.0), 34.687530813380206507),
    ((2.0, 1.0, 1.0), 21.478435327883736801),
    ((1.0, 1.0, 1.0), 4.0 * math.pi),
]


def test_eccentricities_exact_values():
    e = eccentricities(2.0, 1.5, 1.0)
    assert isinstance(e, EccentricityPair)
    assert e.e1 == pytest.approx(SQ3 / 2.0, rel=1e-15)
    assert e.e2 == pytest.approx(math.sqrt(5.0) / 3.0, rel=1e-15)


def test_barred_params_exact_values():
    f = barred_params(1.0, 1.5, 2.0)
    assert isinstance(f, BarredPair)
    assert f.f1 == pytest.approx(SQ3, rel=1e-15)
    assert f.f2 == pytest.approx(math.sqrt(7.0) / 3.0, rel=1e-15)


def test_parametrization_preconditions():
    with pytest.raises(DomainError):
        eccentricities(1.0, 1.0, 1.0)       # needs a > c
    with pytest.raises(DomainError):
        eccentricities(1.0, 2.0, 3.0)       # wrong ordering
    with pytest.raises(DomainError):
        barred_params(3.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        barred_params(1.0, 1.0, 1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            eccentricities(2.0, 1.5, bad)


def test_spheroid_edge_of_parametrizations():
    # equal trailing pair is allowed: e2 (or f2) collapses to zero
    e = eccentricities(2.0, 1.0, 1.0)
    assert e.e2 == 0.0 and e.e1 == pytest.approx(SQ3 / 2.0, rel=1e-15)
    f = barred_params(1.0, 2.0, 2.0)
    assert f.f2 == 0.0 and f.f1 == pytest.approx(SQ3, rel=1e-15)


@pytest.mark.parametrize("axes,expected", FROZEN_AREAS)
def test_frozen_areas(axes, expected):
    assert surface_area(*axes) == pytest.approx(expected, rel=5e-14)


def test_oblate_elementary_form():
    # r = 2, c = 1: 8 pi + (4 pi / sqrt 3) ln(2 + sqrt 3)
    expected = 8.0 * math.pi + 4.0 * math.pi / SQ3 * math.log(2.0 + SQ3)
    assert oblate_area(2.0, 1.0) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        oblate_area(1.0, 2.0)


def test_flat_oblate_spheroids_do_not_divide_by_zero():
    # r - sqrt(r^2 - c^2) rounded to zero here and raised ZeroDivisionError
    assert oblate_area(1.0, 1e-9) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert surface_area(1.0, 1.0, 1e-300) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert oblate_area(1e150, 1.0) == pytest.approx(2.0 * math.pi * 1e300, rel=1e-15)


def test_prolate_elementary_form():
    # c = 2, r = 1: 2 pi + (8 pi / sqrt 3) arcsin(sqrt 3 / 2)
    expected = 2.0 * math.pi + 8.0 * math.pi / SQ3 * math.asin(SQ3 / 2.0)
    assert prolate_area(2.0, 1.0) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        prolate_area(1.0, 2.0)


def test_permutation_exactness():
    # surface_area sorts, so all six orderings give bitwise identical areas
    rng = random.Random(31415)
    for _ in range(100):
        axes = [rng.uniform(0.1, 10.0) for _ in range(3)]
        ref = surface_area(*sorted(axes, reverse=True))
        seen = {surface_area(a, b, c)
                for a, b, c in [(axes[i], axes[j], axes[k])
                                for i in range(3) for j in range(3)
                                for k in range(3)
                                if {i, j, k} == {0, 1, 2}]}
        assert seen == {ref}


def test_scaling_invariance():
    rng = random.Random(2718)
    for lam in (0.5, 2.0, 10.0, 0.1):
        a, b, c = (rng.uniform(0.2, 5.0) for _ in range(3))
        assert surface_area(lam * a, lam * b, lam * c) == pytest.approx(
            lam * lam * surface_area(a, b, c), rel=1e-12)


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9])
def test_oblate_limit_continuity(ratio):
    a = 1.0 + 1e-6
    nearly = triaxial_area(a, 1.0, ratio)
    exact = oblate_area(0.5 * (a + 1.0), ratio)
    assert nearly == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9])
def test_prolate_limit_continuity(ratio):
    b = ratio * (1.0 + 1e-6)
    nearly = triaxial_area(1.0, b, ratio)
    exact = prolate_area(1.0, 0.5 * (b + ratio))
    assert nearly == pytest.approx(exact, rel=1e-5)


def test_ascending_near_prolate_limit():
    # the ascending form of (a, b, c) = (1, 1 + 1e-6, 2) is triaxial_area(c, b, a)
    nearly = triaxial_area(2.0, 1.0 + 1e-6, 1.0)
    assert nearly == pytest.approx(prolate_area(2.0, 1.0), rel=1e-5)


def _strict_grid():
    for i in range(10):
        a = 2.0 + i / 10.0
        for j in range(10):
            b = 1.2 + j / 15.0
            for k in range(10):
                c = 0.3 + k / 16.0
                yield a, b, c


def test_legendre_form_agreement():
    # Legendre's form, term by term triaxial_area, vs the R_G area
    for a, b, c in _strict_grid():
        assert triaxial_area(a, b, c) == pytest.approx(surface_area(a, b, c), rel=1e-12)


def test_ascending_form_agreements():
    # the paper's ascending form is triaxial_area with a and c interchanged
    for a, b, c in [(1.0, 1.5, 2.0), (0.4, 1.1, 5.0), (1.0, 2.0, 3.0)]:
        assert triaxial_area(c, b, a) == pytest.approx(surface_area(a, b, c), rel=1e-12)


def test_against_two_dimensional_quadrature():
    for axes, expected in FROZEN_AREAS[:3]:
        oracle = surface_area_quadrature(*axes, 1e-9)
        assert oracle.value == pytest.approx(expected, rel=1e-8)


# every name from another module that verify's geometry suite reads
_GEOMETRY_READS = ("surface_area", "surface_area_quadrature", "triaxial_area", "oblate_area",
                   "prolate_area", "i1_closed", "log_closed", "i1_barred_closed", "atan_closed")


def _scaled(fn, factor):
    def mutant(*args):
        out = fn(*args)
        if hasattr(out, "_replace"):  # a QuadratureResult
            return out._replace(value=out.value * factor)
        if isinstance(out, tuple):
            return tuple(v * factor for v in out)
        return out * factor
    return mutant


def test_every_geometry_family_fails_under_a_mutant(monkeypatch):
    # each name scaled by 1 + 1e-6 in turn; a family that no mutant fails can
    # only be comparing a value with itself
    families = {r.ident for r in verify.geometry_records(5)}
    killed = set()
    for name in _GEOMETRY_READS:
        with monkeypatch.context() as m:
            m.setattr(verify, name, _scaled(getattr(verify, name), 1.0 + 1e-6))
            killed |= {r.ident for r in verify.geometry_records(5) if not r.passed}
    assert killed == families


_AXIS = st.floats(5e-324, sys.float_info.max)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_AXIS, _AXIS, _AXIS)
def test_area_oracle_over_the_float_range(a, b, c):
    # the oracle never raises; it agrees with the closed form wherever that
    # is a normal float well inside the range, and elsewhere both overflow
    # or both underflow together
    oracle = surface_area_quadrature(a, b, c, 1e-12).value
    closed = surface_area(a, b, c)
    if 1e-300 < closed < 1e300:
        assert oracle == pytest.approx(closed, rel=1e-10)
    elif closed >= 1e300:
        assert oracle >= 1e290
    else:
        assert oracle < 1e-290


def test_surface_area_rejects_bad_axes():
    for axes in [(0.0, 1.0, 1.0), (-2.0, 1.0, 1.0), (1.0, math.nan, 1.0),
                 (1.0, 1.0, math.inf)]:
        with pytest.raises(DomainError):
            surface_area(*axes)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_area_bounded_by_enclosing_sphere(a, b, c):
    # the area lies between the areas of the inscribed and enclosing spheres
    s = surface_area(a, b, c)
    lo, hi = min(a, b, c), max(a, b, c)
    assert 4.0 * math.pi * lo * lo * (1.0 - 1e-12) <= s
    assert s <= 4.0 * math.pi * hi * hi * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.floats(1.001, 3.0))
def test_area_monotone_in_each_axis(a, b, c, grow):
    assert surface_area(grow * a, b, c) > surface_area(a, b, c)
