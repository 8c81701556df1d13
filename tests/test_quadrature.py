"""Tests for the adaptive Gauss-Kronrod quadrature layer.

Covers plain integration, the inverse-square-root substitution helper,
the surface-area oracle over the azimuth, error-estimate honesty,
determinism, and the evaluation-budget machinery including the
ELLINT_MAX_EVALS environment override.  One table also pins the input guards
of the public entry points, quadrature and others, that no other test
triggers.
"""

import itertools
import math

import pytest

from ellint import (
    DomainError,
    IdentityId,
    NonConvergenceError,
    NonFiniteIntegrandError,
    Report,
    check,
    closed_value,
    complete_e,
    grid_params,
    integrate,
    integrate_singular_pair,
    run_suite,
    surface_area_quadrature,
    triaxial_area,
    write_report,
)
from ellint.identities import AlphaZ, EpsAB
from ellint.quadrature import HALF_PI


def test_polynomial_exact():
    res = integrate(lambda x: x, 0.0, 1.0)
    assert res.value == pytest.approx(0.5, rel=1e-15)
    assert res.evaluations >= 15


def test_constant_over_quarter_period():
    res = integrate(lambda t: 1.0, 0.0, HALF_PI)
    assert res.value == pytest.approx(HALF_PI, rel=1e-15)


def test_second_kind_kernel_matches_complete_e():
    res = integrate(lambda t: math.sqrt(1.0 - 0.25 * math.sin(t) ** 2),
                    0.0, HALF_PI, 1e-13)
    assert res.value == pytest.approx(complete_e(0.5), rel=1e-12)


def test_error_estimate_within_requested_tolerance():
    tol = 1e-11
    res = integrate(lambda t: math.sqrt(1.0 - 0.81 * math.sin(t) ** 2),
                    0.0, HALF_PI, tol)
    assert res.error_estimate <= max(tol * abs(res.value), 1e-15 * HALF_PI)
    assert res.evaluations % 15 == 0


# thirty integrands with elementary antiderivatives on [0, 1]
_HONESTY_CASES = [
    (lambda x: 1.0, 1.0),
    (lambda x: x, 0.5),
    (lambda x: x * x, 1.0 / 3.0),
    (lambda x: x ** 3 - 2.0 * x + 1.0, 0.25),
    (lambda x: x ** 5, 1.0 / 6.0),
    (lambda x: (x + 1.0) ** 3, 3.75),
    (math.exp, math.e - 1.0),
    (lambda x: x * math.exp(x), 1.0),
    (lambda x: math.exp(-x), 1.0 - 1.0 / math.e),
    (lambda x: math.exp(-x * x), math.sqrt(math.pi) / 2.0 * math.erf(1.0)),
    (math.cos, math.sin(1.0)),
    (math.sin, 1.0 - math.cos(1.0)),
    (lambda x: math.cos(3.0 * x), math.sin(3.0) / 3.0),
    (lambda x: math.sin(5.0 * x), (1.0 - math.cos(5.0)) / 5.0),
    (lambda x: math.sin(x) ** 2, 0.5 - math.sin(2.0) / 4.0),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 4.0),
    (lambda x: 1.0 / (1.0 + x), math.log(2.0)),
    (lambda x: math.log1p(x), 2.0 * math.log(2.0) - 1.0),
    (lambda x: math.log(x + 2.0), 3.0 * math.log(3.0) - 2.0 * math.log(2.0) - 1.0),
    (math.cosh, math.sinh(1.0)),
    (math.sinh, math.cosh(1.0) - 1.0),
    (lambda x: 1.0 / (2.0 + math.cos(x)),
     2.0 / math.sqrt(3.0) * math.atan(math.tan(0.5) / math.sqrt(3.0))),
    (lambda x: math.sqrt(1.0 + x), (2.0 ** 1.5 - 1.0) * 2.0 / 3.0),
    (lambda x: 1.0 / math.sqrt(1.0 + x), 2.0 * (math.sqrt(2.0) - 1.0)),
    (lambda x: x / (1.0 + x * x), 0.5 * math.log(2.0)),
    (math.atan, math.pi / 4.0 - 0.5 * math.log(2.0)),
    (lambda x: 1.0 / (1.0 + math.exp(x)),
     1.0 + math.log(2.0) - math.log(1.0 + math.e)),
    (lambda x: 1.0 / math.cosh(x) ** 2, math.tanh(1.0)),
    (lambda x: x * math.cos(x), math.sin(1.0) + math.cos(1.0) - 1.0),
    (lambda x: 2.0 * x / (1.0 + x * x) ** 2, 0.5),
]


def test_error_estimate_honesty():
    # the reported estimate must bound the true error up to a factor of two
    assert len(_HONESTY_CASES) == 30
    for fn, exact in _HONESTY_CASES:
        res = integrate(fn, 0.0, 1.0, 1e-12)
        assert abs(res.value - exact) <= 2.0 * res.error_estimate


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.2, 0.7), (1.0, 3.0), (0.0, 0.4)])
def test_singular_pair_linear_weight(lo, hi):
    # g(q) = q integrates to pi/2 regardless of the bracket
    res = integrate_singular_pair(lambda q: q, lo, hi, 1e-12)
    assert res.value == pytest.approx(HALF_PI, rel=1e-12)


@pytest.mark.parametrize("e1,e2", [(0.8, 0.4), (0.9, 0.1), (0.5, 0.3)])
def test_singular_pair_reciprocal_weight(e1, e2):
    scale = -(e1 * e1) * (e2 * e2)
    res = integrate_singular_pair(lambda q: scale / q, e2, e1, 1e-12)
    assert res.value == pytest.approx(-math.pi * e1 * e2 / 2.0, rel=1e-12)


def test_singular_pair_log_weight_matches_closed_form():
    def g(q):
        return math.log((1.0 + q) / (1.0 - q))

    res = integrate_singular_pair(g, 0.3, 0.9, 1e-12)
    assert res.value == pytest.approx(
        closed_value(IdentityId.LOG_F, EpsAB(1.0, 0.3, 0.9)), rel=1e-10)


def test_singular_pair_substitution_equivalence():
    # inset the raw integrand away from its endpoint singularities and
    # supply the leading sqrt tail corrections analytically; the
    # substituted transform must agree at a sanity level
    lo, hi, delta = 0.5, 1.25, 1e-6
    g = lambda q: q
    span = hi * hi - lo * lo

    def raw(q):
        return g(q) / math.sqrt((hi * hi - q * q) * (q * q - lo * lo))

    direct = integrate(raw, lo + delta, hi - delta, 1e-12).value
    tail_lo = 2.0 * math.sqrt(delta) * g(lo) / math.sqrt(2.0 * lo * span)
    tail_hi = 2.0 * math.sqrt(delta) * g(hi) / math.sqrt(2.0 * hi * span)
    recovered = direct + tail_lo + tail_hi
    substituted = integrate_singular_pair(g, lo, hi, 1e-12).value
    assert recovered == pytest.approx(substituted, rel=1e-6)


def test_singular_pair_domain():
    for lo, hi in [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0)]:
        with pytest.raises(DomainError):
            integrate_singular_pair(lambda q: q, lo, hi)


def test_determinism_bitwise():
    fn = lambda t: math.sqrt(1.0 - 0.64 * math.sin(t) ** 2)
    r1 = integrate(fn, 0.0, HALF_PI, 1e-12)
    r2 = integrate(fn, 0.0, HALF_PI, 1e-12)
    assert (r1.value, r1.error_estimate, r1.evaluations) == \
        (r2.value, r2.error_estimate, r2.evaluations)
    s1 = integrate_singular_pair(lambda q: q * q, 0.3, 1.1, 1e-12)
    s2 = integrate_singular_pair(lambda q: q * q, 0.3, 1.1, 1e-12)
    assert (s1.value, s1.error_estimate, s1.evaluations) == \
        (s2.value, s2.error_estimate, s2.evaluations)
    a1 = surface_area_quadrature(1.0, 1.3, 0.8, 1e-7)
    a2 = surface_area_quadrature(1.0, 1.3, 0.8, 1e-7)
    assert (a1.value, a1.error_estimate) == (a2.value, a2.error_estimate)


# one integrand as a float and as a 1-tuple: the two run the same loop
_KINDS = {"float": lambda g: g, "tuple": lambda g: lambda x: (g(x),)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_budget_exhaustion_raises(kind):
    f = _KINDS[kind](lambda x: math.sin(50.0 * x))
    with pytest.raises(NonConvergenceError, match="exhausted"):
        integrate(f, 0.0, 10.0, 1e-14, max_evals=100)


@pytest.mark.parametrize("budget", [0, 14])
def test_budget_below_one_panel_raises_before_sampling(budget):
    nodes = []

    def f(x):
        nodes.append(x)
        return x

    with pytest.raises(NonConvergenceError, match="below one 15-point panel"):
        integrate(f, 0.0, 1.0, max_evals=budget)
    assert nodes == []


def test_budget_env_override(monkeypatch):
    fn = lambda x: math.sin(50.0 * x)
    monkeypatch.setenv("ELLINT_MAX_EVALS", "60")
    with pytest.raises(NonConvergenceError):
        integrate(fn, 0.0, 10.0, 1e-14)
    # an explicit argument wins over the environment
    res = integrate(fn, 0.0, 10.0, 1e-10, max_evals=200_000)
    assert res.value == pytest.approx((1.0 - math.cos(500.0)) / 50.0, rel=1e-9)
    monkeypatch.delenv("ELLINT_MAX_EVALS")
    res2 = integrate(fn, 0.0, 10.0, 1e-10)
    assert res2.value == res.value


def test_env_budget_bounds_every_oracle_caller(monkeypatch):
    # ELLINT_MAX_EVALS is the only budget control above integrate(); 30 admits
    # only the first GK15 panel, so each caller raises unless one panel meets
    # its tolerance, whatever endpoint map its oracle uses; the area oracle
    # needs 105 evaluations at (10, 0.1, 0.1), against one panel at (2, 1.5, 1)
    monkeypatch.setenv("ELLINT_MAX_EVALS", "30")
    with pytest.raises(NonConvergenceError):
        check(IdentityId.PR3_D, AlphaZ(0.5, 0.7))
    with pytest.raises(NonConvergenceError):
        run_suite("integrals", grid=2)
    with pytest.raises(NonConvergenceError):
        surface_area_quadrature(10.0, 0.1, 0.1)


def test_budget_env_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("ELLINT_MAX_EVALS", "bogus")
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, 1.0)
    monkeypatch.setenv("ELLINT_MAX_EVALS", "1.5")
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, 1.0)


_GUARDS = {
    "triaxial_not_descending": lambda path: triaxial_area(1.0, 2.0, 3.0),
    "grid_size_zero": lambda path: grid_params(IdentityId.I1, 0),
    "integrate_reversed": lambda path: integrate(math.sin, 1.0, 0.0),
    "integrate_empty": lambda path: integrate(math.sin, 1.0, 1.0),
    "integrate_infinite": lambda path: integrate(math.sin, 0.0, math.inf),
    "integrate_tol_zero": lambda path: integrate(math.sin, 0.0, 1.0, 0.0),
    "quadrature_negative_axis": lambda path: surface_area_quadrature(1.0, -1.0, 1.0),
    "suite_unknown": lambda path: run_suite("nonsense", 2),
    "suite_grid_zero": lambda path: run_suite("series", 0),
    "suite_tol_zero": lambda path: run_suite("series", 2, 0.0),
    "report_format_xml": lambda path: write_report(Report("0", {}, None, ()), path, "xml"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_input_guards_raise_domain_error(case, tmp_path):
    path = tmp_path / "report"
    with pytest.raises(DomainError):
        _GUARDS[case](str(path))
    assert not path.exists()


def test_budget_env_rejects_zero(monkeypatch):
    monkeypatch.setenv("ELLINT_MAX_EVALS", "0")
    with pytest.raises(DomainError, match="positive"):
        integrate(lambda x: x, 0.0, 1.0)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_interval_below_float_resolution(kind):
    hi = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    with pytest.raises(NonConvergenceError, match="below float resolution"):
        integrate(_KINDS[kind](lambda x: x), 1.0, hi, 1e-300)


def test_non_finite_integrand():
    with pytest.raises(NonFiniteIntegrandError):
        integrate(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrandError):
        integrate(lambda x: math.inf, 0.0, 1.0)
    assert issubclass(NonFiniteIntegrandError, NonConvergenceError)


def test_float_integrand_results_are_unchanged():
    # pinned bit for bit; the same integrand as a 1-tuple gives the same bits
    # in 1-tuples
    for f, lo, hi, tol, pinned in [
            (lambda t: math.sqrt(1.0 - 0.81 * math.sin(t) ** 2), 0.0, HALF_PI, 1e-11,
             (1.171697052781614, 1.3008450458835852e-14, 75)),
            (lambda x: math.sin(50.0 * x), 0.0, 10.0, 1e-10,
             (0.037676985468630166, 9.512457278050712e-13, 3825))]:
        value, err, evals = pinned
        assert integrate(f, lo, hi, tol) == pinned
        assert integrate(lambda x: (f(x),), lo, hi, tol) == ((value,), (err,), evals)


def test_tuple_components_meet_their_own_tolerance():
    # components 1e12 apart in magnitude, the oscillating one the small or
    # the large one: each meets tol relative to its own value, at the cost of
    # the oscillating component alone
    def big(x):
        return 1e12 * math.exp(-x)

    def wave(x):
        return math.sin(50.0 * x)

    exact_big = -1e12 * math.expm1(-10.0)
    exact_wave = (1.0 - math.cos(500.0)) / 50.0
    alone = integrate(wave, 0.0, 10.0, 1e-10).evaluations
    for f, exact in [(lambda x: (big(x), wave(x)), (exact_big, exact_wave)),
                     (lambda x: (1e12 * wave(x), 1e-12 * big(x)),
                      (1e12 * exact_wave, 1e-12 * exact_big))]:
        res = integrate(f, 0.0, 10.0, 1e-10)
        assert len(res.value) == len(res.error_estimate) == 2
        for value, err, ref in zip(res.value, res.error_estimate, exact):
            assert err <= 1e-10 * abs(value)
            assert abs(value - ref) <= 1e-10 * abs(ref)
        assert res.evaluations == alone


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tuple_non_finite_component_raises(bad):
    for f in (lambda x: (x, bad), lambda x: (bad, x)):
        with pytest.raises(NonFiniteIntegrandError):
            integrate(f, 0.0, 1.0)


def test_tuple_budget_counts_shared_evaluations_once():
    nodes = []

    def f(x):
        nodes.append(x)
        return math.sin(50.0 * x), math.cos(50.0 * x)

    res = integrate(f, 0.0, 10.0, 1e-10)
    assert res.evaluations == len(nodes)
    # a budget of exactly that many evaluations suffices; one fewer does not
    assert integrate(f, 0.0, 10.0, 1e-10, max_evals=res.evaluations) == res
    with pytest.raises(NonConvergenceError):
        integrate(f, 0.0, 10.0, 1e-10, max_evals=res.evaluations - 1)


def test_tuple_singular_pair():
    # g(q) = (q, q^3): pi/2 and pi/4 (lo^2 + hi^2)
    res = integrate_singular_pair(lambda q: (q, q ** 3), 0.3, 0.9, 1e-12)
    assert res.value[0] == pytest.approx(HALF_PI, rel=1e-12)
    assert res.value[1] == pytest.approx(math.pi / 4.0 * (0.09 + 0.81), rel=1e-12)


def test_surface_area_sphere():
    res = surface_area_quadrature(1.0, 1.0, 1.0, 1e-9)
    assert res.value == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_surface_area_axis_order_insensitive():
    # the oracle sorts the axes, so every order gives the same bits
    base = surface_area_quadrature(1.0, 1.5, 2.0, 1e-9)
    for axes in itertools.permutations((1.0, 1.5, 2.0)):
        assert surface_area_quadrature(*axes, 1e-9) == base


def test_surface_area_scaling():
    base = surface_area_quadrature(0.7, 1.1, 1.9, 1e-9).value
    scaled = surface_area_quadrature(1.4, 2.2, 3.8, 1e-9).value
    assert scaled == pytest.approx(4.0 * base, rel=1e-8)
