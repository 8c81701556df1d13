"""Tests for the Legendre kernels built on the Carlson symmetric forms.

Reference values were frozen from 30-digit arbitrary-precision evaluation
of the defining integrals; the complete integrals are cross-checked here
against an independent AGM iteration that shares no code with the package.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellint import (
    DivergenceError,
    DomainError,
    carlson_rd,
    carlson_rf,
    complementary_amplitude,
    complete_d,
    complete_e,
    complete_k,
    imaginary_argument_reduce,
    imaginary_modulus_reduce,
    incomplete_d,
    incomplete_e,
    incomplete_f,
    integrate,
)
from ellint.elliptic import HALF_PI


def agm_complete(k: float) -> tuple:
    """Independent (K, E) references via the arithmetic-geometric mean."""
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    csum = 0.5 * c * c
    weight = 0.5
    for _ in range(64):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        csum += weight * c * c
        if abs(c) <= 1e-18 * a:
            break
    kk = HALF_PI / a
    return kk, kk * (1.0 - csum)


FROZEN = [
    (incomplete_f, (0.7, 0.8), 0.73805852075077711465),
    (incomplete_e, (1.0, 0.5), 0.96487645426862748546),
    (incomplete_d, (0.8, 0.5), 0.15660774724670460511),
    (complete_k, (0.9,), 2.2805491384227702046),
    (complete_e, (0.6,), 1.4180833944487242316),
    (complete_e, (0.5,), 1.4674622093394271555),
]


@pytest.mark.parametrize("fn,args,expected", FROZEN)
def test_frozen_values(fn, args, expected):
    assert fn(*args) == pytest.approx(expected, rel=5e-14)


def test_carlson_special_points():
    assert carlson_rf(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert carlson_rd(0.0, 1.0, 1.0) == pytest.approx(3.0 * math.pi / 4.0, rel=1e-15)
    # scaling laws: RF homogeneous of degree -1/2, RD of degree -3/2
    x, y, z, lam = 0.3, 1.7, 2.9, 4.0
    assert carlson_rf(lam * x, lam * y, lam * z) == pytest.approx(
        carlson_rf(x, y, z) / math.sqrt(lam), rel=1e-14)
    assert carlson_rd(lam * x, lam * y, lam * z) == pytest.approx(
        carlson_rd(x, y, z) / lam ** 1.5, rel=1e-14)


@pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (1.0, 1.0, -1e-300), (0.0, 0.0, 1.0),
                                  (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.7e308, 0.0)])
def test_carlson_rf_domain(args):
    # negative arguments and two zeros raise, also when the sum would be rescaled
    with pytest.raises(DomainError):
        carlson_rf(*args)


def test_complete_limits_at_zero_modulus():
    assert abs(complete_k(0.0) - HALF_PI) <= 1e-15
    assert abs(complete_e(0.0) - HALF_PI) <= 1e-15
    assert complete_d(0.0) == pytest.approx(math.pi / 4.0, rel=1e-15)


def test_unit_modulus_corner():
    assert complete_e(1.0) == 1.0
    assert incomplete_e(HALF_PI, 1.0) == 1.0
    with pytest.raises(DivergenceError):
        complete_k(1.0)
    with pytest.raises(DivergenceError):
        complete_d(1.0)
    with pytest.raises(DivergenceError):
        incomplete_f(HALF_PI, 1.0)
    with pytest.raises(DivergenceError):
        incomplete_d(HALF_PI, 1.0)
    # away from the corner the unit modulus stays finite
    assert incomplete_f(1.2, 1.0) == pytest.approx(
        math.atanh(math.sin(1.2)), rel=1e-12)


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
def test_zero_amplitude_is_exactly_zero(k):
    # the general path gives +0.0 exactly, so no phi = 0 shortcut is needed
    for fn in (incomplete_f, incomplete_e, incomplete_d):
        value = fn(0.0, k)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("fn", [incomplete_f, incomplete_e, incomplete_d])
def test_domain_rejection(fn):
    for phi, k in [(-0.1, 0.5), (HALF_PI + 0.1, 0.5), (0.5, -0.1),
                   (0.5, 1.1), (math.nan, 0.5), (0.5, math.nan)]:
        with pytest.raises(DomainError):
            fn(phi, k)


def test_error_hierarchy():
    assert issubclass(DivergenceError, DomainError)
    assert issubclass(DomainError, ValueError)


@pytest.mark.parametrize("k", [0.1, 0.35, 0.6, 0.85, 0.99])
def test_complete_equals_incomplete_at_right_angle(k):
    assert incomplete_f(HALF_PI, k) == pytest.approx(complete_k(k), rel=1e-13)
    assert incomplete_e(HALF_PI, k) == pytest.approx(complete_e(k), rel=1e-13)
    assert incomplete_d(HALF_PI, k) == pytest.approx(complete_d(k), rel=1e-13)
    assert complete_d(k) == pytest.approx(
        (complete_k(k) - complete_e(k)) / (k * k), rel=1e-12)


def test_d_composition_identity():
    # k^2 D + E = F, composed from three independent Carlson evaluations
    for phi in (0.3, 0.7, 1.1, 1.5):
        for k in (0.1, 0.4, 0.7, 0.95):
            lhs = k * k * incomplete_d(phi, k) + incomplete_e(phi, k)
            assert lhs == pytest.approx(incomplete_f(phi, k), rel=1e-13)


def test_incomplete_d_zero_modulus_limit():
    for phi in (0.2, 0.6, 1.0, 1.4, HALF_PI):
        limit = 0.5 * (phi - math.sin(phi) * math.cos(phi))
        assert incomplete_d(phi, 0.0) == pytest.approx(limit, rel=1e-14)
        # continuity: a tiny modulus stays within O(k^2) of the limit
        assert incomplete_d(phi, 1e-8) == pytest.approx(limit, rel=1e-12)


def test_agm_cross_check():
    for j in range(1, 21):
        k = j / 21.0
        kk, ee = agm_complete(k)
        assert complete_k(k) == pytest.approx(kk, rel=1e-14)
        assert complete_e(k) == pytest.approx(ee, rel=1e-14)


def test_agm_against_carlson():
    # complete K and E run on the AGM; R_F and R_D are a different method
    for j in range(1, 21):
        k = j / 21.0
        y = (1.0 - k) * (1.0 + k)
        rf = carlson_rf(0.0, y, 1.0)
        assert complete_k(k) == pytest.approx(rf, rel=1e-14)
        assert complete_e(k) == pytest.approx(
            rf - k * k * carlson_rd(0.0, y, 1.0) / 3.0, rel=1e-14)


def test_legendre_relation():
    # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2
    for j in range(1, 21):
        k = j / 21.0
        kp = math.sqrt(1.0 - k * k)
        lhs = (complete_e(k) * complete_k(kp) + complete_e(kp) * complete_k(k)
               - complete_k(k) * complete_k(kp))
        assert lhs == pytest.approx(HALF_PI, rel=1e-12)


def test_incomplete_against_quadrature():
    for i in range(6):
        phi = 0.15 + (1.5 - 0.15) * i / 5.0
        for j in range(6):
            k = 0.05 + 0.9 * j / 5.0
            m = k * k

            def df(t):
                return 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2)

            def de(t):
                return math.sqrt(1.0 - m * math.sin(t) ** 2)

            assert incomplete_f(phi, k) == pytest.approx(
                integrate(df, 0.0, phi, 1e-13).value, rel=1e-12)
            assert incomplete_e(phi, k) == pytest.approx(
                integrate(de, 0.0, phi, 1e-13).value, rel=1e-12)


def test_complementary_amplitude_endpoints():
    for kp in (0.2, 0.5, 0.8):
        assert complementary_amplitude(0.0, kp) == HALF_PI
        assert complementary_amplitude(HALF_PI, kp) == pytest.approx(0.0, abs=1e-7)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            complementary_amplitude(0.5, bad)


def test_conjugate_delta_small_modulus_and_domain():
    # the conjugate amplitude delta of theta is complementary_amplitude(theta, k);
    # as k -> 0 it tends to pi/2 - theta, and k = 0 or 1 is outside its domain
    assert complementary_amplitude(0.4, 1e-8) == pytest.approx(HALF_PI - 0.4, abs=1e-12)
    for theta, k in [(0.5, 0.0), (0.5, 1.0)]:
        with pytest.raises(DomainError):
            complementary_amplitude(theta, k)


def test_complementary_amplitude_addition():
    # F(phi1) + F(phi2) = K and E(phi1) + E(phi2) = E + k^2 s1 s2,
    # all at the modulus that defines the conjugate pair
    rng = random.Random(4242)
    for _ in range(50):
        phi1 = rng.uniform(0.0, HALF_PI)
        kp = rng.uniform(0.05, 0.95)
        phi2 = complementary_amplitude(phi1, kp)
        fsum = incomplete_f(phi1, kp) + incomplete_f(phi2, kp)
        assert fsum == pytest.approx(complete_k(kp), rel=1e-11)
        esum = incomplete_e(phi1, kp) + incomplete_e(phi2, kp)
        cross = kp * kp * math.sin(phi1) * math.sin(phi2)
        assert esum == pytest.approx(complete_e(kp) + cross, rel=1e-11)


def test_imaginary_modulus_frozen():
    f, e = imaginary_modulus_reduce(0.9, 1.2)
    assert f == pytest.approx(0.79243511265273546816, rel=5e-14)
    assert e == pytest.approx(1.0327016332951747399, rel=5e-14)


def test_imaginary_modulus_reduction_grid():
    # the reduction must match direct integration of the defining pair
    for i in range(10):
        phi = (i + 1) * HALF_PI / 11.0
        for j in range(10):
            k = 3.0 * (j + 1) / 11.0
            m = k * k

            def df(t):
                return 1.0 / math.sqrt(1.0 + m * math.sin(t) ** 2)

            def de(t):
                return math.sqrt(1.0 + m * math.sin(t) ** 2)

            f, e = imaginary_modulus_reduce(phi, k)
            assert f == pytest.approx(integrate(df, 0.0, phi, 1e-12).value, rel=1e-10)
            assert e == pytest.approx(integrate(de, 0.0, phi, 1e-12).value, rel=1e-10)


def test_imaginary_modulus_degenerate():
    assert imaginary_modulus_reduce(0.7, 0.0) == (0.7, 0.7)
    assert imaginary_modulus_reduce(0.0, 2.5) == (0.0, 0.0)
    with pytest.raises(DomainError):
        imaginary_modulus_reduce(0.5, -1.0)
    with pytest.raises(DomainError):
        imaginary_modulus_reduce(2.0, 1.0)


@pytest.mark.parametrize("k", [1e155, 1.4e154, math.inf, math.nan])
def test_imaginary_modulus_bound(k):
    # k^2 must be finite: these raised a bare OverflowError or named a nan modulus
    with pytest.raises(DomainError, match="1.34e154"):
        imaginary_modulus_reduce(0.5, k)
    f, e = imaginary_modulus_reduce(HALF_PI, 1.34e154)
    assert 0.0 < f < 1e-150 and e == pytest.approx(1.34e154, rel=1e-15)


def test_imaginary_argument_frozen():
    f, e = imaginary_argument_reduce(1.0, 0.5)
    assert f == pytest.approx(0.95545744584712436932, rel=5e-14)
    assert e == pytest.approx(1.0485906796395847732, rel=5e-14)


def test_imaginary_argument_reduction_grid():
    for i in range(10):
        phi_h = 2.0 * (i + 1) / 11.0
        for j in range(10):
            k = (j + 1) / 11.0
            m = k * k

            def df(t):
                return 1.0 / math.sqrt(1.0 + m * math.sinh(t) ** 2)

            def de(t):
                return math.sqrt(1.0 + m * math.sinh(t) ** 2)

            f, e = imaginary_argument_reduce(phi_h, k)
            assert f == pytest.approx(integrate(df, 0.0, phi_h, 1e-12).value, rel=1e-10)
            assert e == pytest.approx(integrate(de, 0.0, phi_h, 1e-12).value, rel=1e-10)


def test_imaginary_argument_degenerate():
    assert imaginary_argument_reduce(0.0, 0.5) == (0.0, 0.0)
    for phi_h, k in [(-0.5, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, -0.2)]:
        with pytest.raises(DomainError):
            imaginary_argument_reduce(phi_h, k)


@pytest.mark.parametrize("phi_h", [710.476, 800.0, math.inf, math.nan])
def test_imaginary_argument_bound(phi_h):
    # sinh(phi_h) must be finite: 800 raised a bare OverflowError, inf gave a wrong e
    with pytest.raises(DomainError, match="710.4758600739439"):
        imaginary_argument_reduce(phi_h, 0.5)
    e = imaginary_argument_reduce(710.4758600739439, 0.5)[1]
    assert e == pytest.approx(0.5 * math.sinh(710.4758600739439), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, HALF_PI), st.floats(1e-6, HALF_PI), st.floats(0.0, 0.999))
def test_monotone_in_amplitude(amp_a, amp_b, k):
    lo, hi = sorted((amp_a, amp_b))
    assume(hi - lo > 1e-9)
    assert incomplete_f(hi, k) > incomplete_f(lo, k)
    assert incomplete_e(hi, k) > incomplete_e(lo, k)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, HALF_PI), st.floats(0.0, 0.999))
def test_amplitude_brackets_integrals(phi, k):
    # the first-kind integrand is >= 1, the second-kind one is <= 1
    assert incomplete_f(phi, k) >= phi * (1.0 - 1e-14)
    assert incomplete_e(phi, k) <= phi * (1.0 + 1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, HALF_PI))
def test_zero_modulus_reduces_to_amplitude(phi):
    assert incomplete_f(phi, 0.0) == pytest.approx(phi, rel=1e-14)
    assert incomplete_e(phi, 0.0) == pytest.approx(phi, rel=1e-14)
