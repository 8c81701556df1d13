"""Tests for the double-eccentricity series machinery.

The coefficient recurrences are pinned against hand-expanded closed forms
for the low orders, the two sigma sums against their exact elliptic
references, and the Maclaurin derivative extractor against the Taylor
series of the derivative of the underlying first-kind integral.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellint import (
    DomainError,
    NonConvergenceError,
    a_coefficients,
    f_maclaurin_derivative,
    omega_coefficients,
    psi_terms,
    sigma1_sum,
    sigma2_sum,
    theta_terms,
)
from ellint.identities import EpsAB, IdentityId, closed_value
from ellint.verify import _maclaurin_reference, maclaurin_records

PAIRS = [(0.6, 0.3), (0.8, 0.5), (0.45, 0.4), (0.9, 0.2), (0.3, 0.1),
         (0.7, 0.65), (0.85, 0.1), (0.2, 0.15), (0.5, 0.25), (0.95, 0.6)]


def sigma1_reference(e1, e2):
    """sigma1's closed value: the LOG_F integral with unit log argument."""
    return closed_value(IdentityId.LOG_F, EpsAB(1.0, e2, e1))


def sigma2_reference(e1, e2):
    """sigma2's closed value: the LOG_Q2 integral with unit log argument."""
    return closed_value(IdentityId.LOG_Q2, EpsAB(1.0, e2, e1))


def _sq(x):
    return x * x


# hand-expanded closed forms for the leading coefficients


def _omega5(e1, e2):
    return (3.0 * e1 ** 4 + 2.0 * _sq(e1) * _sq(e2) + 3.0 * e2 ** 4) / 24.0


def _omega7(e1, e2):
    return (5.0 * e1 ** 6 + 3.0 * e1 ** 4 * _sq(e2)
            + 3.0 * _sq(e1) * e2 ** 4 + 5.0 * e2 ** 6) / 80.0


def _theta5(e1, e2):
    return (e1 ** 4 - 2.0 * _sq(e1) * _sq(e2) + e2 ** 4) / 8.0


def _theta7(e1, e2):
    return (e1 ** 6 - e1 ** 4 * _sq(e2) - _sq(e1) * e2 ** 4 + e2 ** 6) / 16.0


def _psi5(e1, e2):
    return _sq(e1) * _sq(e2) / 3.0


def _psi7(e1, e2):
    return (e1 ** 4 * _sq(e2) + _sq(e1) * e2 ** 4) / 10.0


@pytest.mark.parametrize("e1,e2", PAIRS)
def test_leading_coefficients_closed_forms(e1, e2):
    s = _sq(e1) + _sq(e2)
    a = a_coefficients(e1, e2, 2).terms
    assert a[0] == 1.0
    assert a[1] == pytest.approx(s / 6.0, rel=1e-14)
    assert a[2] == pytest.approx(
        (3.0 * e1 ** 4 + 2.0 * _sq(e1) * _sq(e2) + 3.0 * e2 ** 4) / 40.0, rel=1e-14)
    w = omega_coefficients(e1, e2, 3).terms
    assert w[0] == 1.0
    assert w[1] == pytest.approx(s / 2.0, rel=1e-14)
    assert w[2] == pytest.approx(_omega5(e1, e2), rel=1e-14)
    assert w[3] == pytest.approx(_omega7(e1, e2), rel=1e-14)
    t = theta_terms(e1, e2, 3).terms
    assert t[0] == 0.0
    assert t[1] == pytest.approx(s / 2.0, rel=1e-14)
    assert t[2] == pytest.approx(_theta5(e1, e2), rel=1e-14)
    assert t[3] == pytest.approx(_theta7(e1, e2), rel=1e-14)
    p = psi_terms(e1, e2, 3).terms
    assert p[0] == 0.0
    assert p[1] == 0.0
    assert p[2] == pytest.approx(_psi5(e1, e2), rel=1e-13)
    assert p[3] == pytest.approx(_psi7(e1, e2), rel=1e-13)


@pytest.mark.parametrize("e1,e2", [(0.6, 0.3), (0.85, 0.7), (0.3, 0.05)])
def test_omega_splits_into_theta_plus_psi(e1, e2):
    w = omega_coefficients(e1, e2, 5).terms
    t = theta_terms(e1, e2, 5).terms
    p = psi_terms(e1, e2, 5).terms
    for m in range(1, 6):
        assert w[m] == pytest.approx(t[m] + p[m], rel=5e-16, abs=1e-18)


@pytest.mark.parametrize("e1,e2", [(0.8, 0.45), (0.5, 0.2), (0.95, 0.9)])
def test_cross_family_coefficient_ratio(e1, e2):
    # the two recurrences are coupled: A/Omega = (2m-1)/(2m+1) termwise
    a = a_coefficients(e1, e2, 8).terms
    w = omega_coefficients(e1, e2, 8).terms
    for m in range(1, 9):
        assert a[m] / w[m] == pytest.approx((2 * m - 1) / (2 * m + 1), rel=1e-12)


def test_coefficient_domain_rejection():
    for e1, e2 in [(0.3, 0.6), (1.0, 0.5), (0.5, 0.0), (0.5, -0.1)]:
        with pytest.raises(DomainError):
            a_coefficients(e1, e2, 3)
    with pytest.raises(DomainError):
        omega_coefficients(0.6, 0.3, -1)
    with pytest.raises(DomainError):
        theta_terms(0.6, 0.3, 1.5)


def test_sigma1_frozen_value():
    res = sigma1_sum(0.6, 0.3)
    assert res.value == pytest.approx(3.4252211653964145715, rel=1e-13)
    assert res.terms_used > 5


def test_sigma2_frozen_value():
    res = sigma2_sum(0.7, 0.2)
    assert res.value == pytest.approx(0.96841940218866429015, rel=1e-13)


def test_sigma_sums_match_references_on_grid():
    for i in range(10):
        e1 = 0.9 * (i + 1) / 10.0
        for j in range(10):
            e2 = e1 * (j + 0.5) / 10.0
            s1 = sigma1_sum(e1, e2)
            assert s1.value == pytest.approx(sigma1_reference(e1, e2), rel=1e-12)
            s2 = sigma2_sum(e1, e2)
            assert s2.value == pytest.approx(sigma2_reference(e1, e2), rel=1e-12)


def test_sigma2_tiny_eccentricities_stay_relatively_accurate():
    # the sum is ~ pi (e1^2 + e2^2)/2; summing the tail directly keeps
    # full relative accuracy even though the value is ~ 1e-4
    res = sigma2_sum(0.01, 0.005)
    ref = sigma2_reference(0.01, 0.005)
    assert 0.0 < res.value < 1e-3
    assert res.value == pytest.approx(ref, rel=1e-12)


def test_truncation_estimate_bounds_remainder():
    for e1, e2 in [(0.6, 0.3), (0.9, 0.45)]:
        res = sigma1_sum(e1, e2, tol=1e-9)
        gap = abs(res.value - sigma1_reference(e1, e2))
        assert gap <= res.truncation_estimate + 1e-12 * abs(res.value)


def test_terms_used_grows_with_eccentricity():
    few = sigma1_sum(0.3, 0.1).terms_used
    many = sigma1_sum(0.9, 0.1).terms_used
    assert many > few


def test_tail_ratio_approaches_squared_eccentricity():
    t = a_coefficients(0.9, 0.45, 60).terms
    assert t[51] / t[50] == pytest.approx(0.81, rel=0.1)


def test_sum_non_convergence():
    with pytest.raises(NonConvergenceError):
        sigma1_sum(0.99, 0.5, max_terms=50)
    with pytest.raises(NonConvergenceError):
        sigma2_sum(0.95, 0.5, max_terms=10)


@pytest.mark.parametrize("series_sum", [sigma1_sum, sigma2_sum])
def test_default_max_terms_limit(series_sum):
    # the documented limit of the default budget: e1 = 0.9998 stops after
    # 59,576 terms, e1 = 0.9999 would need more than 100,000
    assert series_sum(0.9998, 0.5).terms_used == 59_576
    with pytest.raises(NonConvergenceError):
        series_sum(0.9999, 0.5)


def test_sum_domain_rejection():
    for e1, e2 in [(0.3, 0.6), (1.0, 0.5), (0.5, 0.0)]:
        with pytest.raises(DomainError):
            sigma1_sum(e1, e2)
    with pytest.raises(DomainError):
        sigma1_sum(0.6, 0.3, tol=0.0)
    with pytest.raises(DomainError):
        sigma2_sum(0.6, 0.3, max_terms=1)


def test_maclaurin_low_orders_closed():
    for e1, e2 in PAIRS:
        assert f_maclaurin_derivative(0, e1, e2) == 1.0
        assert f_maclaurin_derivative(1, e1, e2) == pytest.approx(
            1.0 + (e2 / e1) ** 2, rel=1e-14)


def test_maclaurin_against_binomial_product():
    records = maclaurin_records()
    assert len(records) == 9
    assert all(r.passed for r in records)
    # d^5/dx^5 F(arcsin x, 1/2) at 0 = 4! (c_0 c_2 + c_1^2 k^2 + c_2 c_0 k^4)
    # = 24 (3/8 + 1/16 + 3/128) = 177/16, exact in binary
    assert _maclaurin_reference(2, 0.5) == 177 / 16
    assert f_maclaurin_derivative(2, 0.8, 0.4) == pytest.approx(177 / 16, rel=1e-15)
    # k/2 of the smallest subnormal k stays nonzero: 4! c_2 = 9 at k = 0
    assert f_maclaurin_derivative(2, 0.9, 5e-324) == 9.0


def test_maclaurin_overflow_guard():
    # (2m)! overflows from m = 86 on
    assert math.isfinite(f_maclaurin_derivative(85, 0.9, 0.9 - 1e-9))
    with pytest.raises(DomainError):
        f_maclaurin_derivative(86, 0.9, 0.45)
    with pytest.raises(DomainError):
        f_maclaurin_derivative(120, 0.9, 0.45)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_coefficient_positivity(e1_raw, frac):
    e1 = e1_raw
    e2 = e1 * frac
    if not (0.0 < e2 < e1 < 1.0):
        return
    assert all(t > 0.0 for t in a_coefficients(e1, e2, 20).terms)
    assert all(t > 0.0 for t in omega_coefficients(e1, e2, 20).terms)
    th = theta_terms(e1, e2, 20).terms
    assert all(t > 0.0 for t in th[1:])


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(0.1, 0.9))
def test_sigma_sums_bounded(e1, frac):
    e2 = e1 * frac
    if not (0.0 < e2 < e1 < 1.0):
        return
    s1 = sigma1_sum(e1, e2)
    s2 = sigma2_sum(e1, e2)
    assert s1.value > math.pi       # positive terms on top of the leading 1
    assert s2.value > 0.0
