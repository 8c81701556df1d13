"""Tests for ellipsoid classification, parametrizations, and area forms.

Frozen area values come from 30-digit evaluation of the defining surface
integral; the closed forms are additionally cross-checked against the
two-dimensional quadrature oracle and against each other.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellint import (
    BarredPair,
    DomainError,
    EccentricityPair,
    ShapeClass,
    barred_params,
    classify,
    eccentricities,
    oblate_area,
    prolate_area,
    surface_area,
    surface_area_ascending,
    surface_area_legendre,
    surface_area_quadrature,
    triaxial_area,
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


def test_classify():
    assert classify(1.0, 1.0, 1.0) is ShapeClass.SPHERE
    assert classify(2.0, 1.5, 1.0) is ShapeClass.TRIAXIAL
    assert classify(2.0, 2.0, 1.0) is ShapeClass.OBLATE
    assert classify(1.0, 2.0, 2.0) is ShapeClass.OBLATE
    assert classify(1.0, 1.0, 2.0) is ShapeClass.PROLATE
    assert classify(2.0, 1.0, 1.0) is ShapeClass.PROLATE
    # tolerance window: a 1e-12 gap is a sphere at the default rel_tol
    assert classify(1.0, 1.0 + 1e-12, 1.0) is ShapeClass.SPHERE
    assert classify(1.0, 1.0 + 1e-12, 1.0, rel_tol=1e-13) is not ShapeClass.SPHERE


def test_classify_rel_tol_domain():
    for tol in (0.0, -1e-9, 1e-2, math.nan):
        with pytest.raises(DomainError):
            classify(1.0, 1.0, 1.0, rel_tol=tol)
    with pytest.raises(DomainError):
        classify(0.0, 1.0, 1.0)


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


def test_dispatch_routes_to_spheroid_forms():
    assert surface_area(2.0, 2.0, 1.0) == oblate_area(2.0, 1.0)
    assert surface_area(1.0, 1.0, 2.0) == prolate_area(2.0, 1.0)
    assert surface_area(1.0, 1.0, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_permutation_exactness():
    # dispatch sorts, so all six orderings give bitwise identical areas
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
    nearly = surface_area_ascending(1.0, 1.0 + 1e-6, 2.0)
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
    # first-kind-only representation vs the direct two-kind form
    for a, b, c in _strict_grid():
        assert surface_area_legendre(a, b, c) == pytest.approx(
            triaxial_area(a, b, c), rel=1e-12)


def test_legendre_form_requires_strict_ordering():
    with pytest.raises(DomainError):
        surface_area_legendre(2.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        surface_area_legendre(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        surface_area_legendre(1.0, 1.5, 2.0)


def test_ascending_form_agreements():
    for a, b, c in [(1.0, 1.5, 2.0), (0.4, 1.1, 5.0), (1.0, 2.0, 3.0)]:
        assert surface_area_ascending(a, b, c) == pytest.approx(
            surface_area(a, b, c), rel=1e-12)


def test_against_two_dimensional_quadrature():
    for axes, expected in FROZEN_AREAS[:3]:
        oracle = surface_area_quadrature(*axes, 1e-9)
        assert oracle.value == pytest.approx(expected, rel=1e-8)


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
