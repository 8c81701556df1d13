"""Tests for the adaptive Gauss-Kronrod quadrature layer.

Covers plain integration, the inverse-square-root substitution helper,
the surface-area oracle over the azimuth, error-estimate honesty,
determinism, and the evaluation budget quadrature.MAX_EVALS, which a test
swaps with monkeypatch.  One table also pins the input guards
of the public entry points, quadrature and others, that no other test
triggers.
"""

import itertools
import math
import random

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
    quadrature,
    run_suite,
    surface_area_quadrature,
    triaxial_area,
    write_report,
)
from ellint.identities import EpsAB
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
    # a 21-point first panel, then two 15-point panels per bisection
    assert (res.evaluations - 21) % 30 == 0


def test_first_panel_rule_table():
    # the 21-point Kronrod rule is exact to degree 31 and its 10-point Gauss
    # rule, on the odd-indexed nodes, to degree 19: 2/(k + 1) for even k
    xk, wk, wg = quadrature._GK21
    assert (len(xk), len(wk), len(wg)) == (21, 21, 10)
    assert xk == tuple(-x for x in reversed(xk)) and all(a < b for a, b in zip(xk, xk[1:]))
    assert wk == wk[::-1] and wg == wg[::-1]
    for k in range(32):
        moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x ** k for w, x in zip(wk, xk)) - moment) <= 4e-16
        if k <= 19:
            assert abs(math.fsum(w * x ** k for w, x in zip(wg, xk[1::2])) - moment) <= 4e-16


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
    res = integrate_singular_pair(lambda q, below, above: q, lo, hi, 1e-12)
    assert res.value == pytest.approx(HALF_PI, rel=1e-12)


@pytest.mark.parametrize("e1,e2", [(0.8, 0.4), (0.9, 0.1), (0.5, 0.3)])
def test_singular_pair_reciprocal_weight(e1, e2):
    scale = -(e1 * e1) * (e2 * e2)
    res = integrate_singular_pair(lambda q, below, above: scale / q, e2, e1, 1e-12)
    assert res.value == pytest.approx(-math.pi * e1 * e2 / 2.0, rel=1e-12)


def test_singular_pair_log_weight_matches_closed_form():
    def g(q, below, above):
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
    substituted = integrate_singular_pair(lambda q, below, above: g(q), lo, hi, 1e-12).value
    assert recovered == pytest.approx(substituted, rel=1e-6)


def test_singular_pair_hands_g_the_exact_factors():
    # on an interval 2^-40 wide, q sqrt((q^2 - lo^2)(hi^2 - q^2)) integrates to
    # (pi/16) span^2; the factors g is handed are exact, while the same g with
    # them rebuilt from the rounded q is 4.5e-5 off
    lo, hi = 1.0, 1.0 + 2.0 ** -40
    span = (hi - lo) * (hi + lo)
    exact = math.pi / 16.0 * span * span
    res = integrate_singular_pair(lambda q, below, above: q * below * above, lo, hi, 1e-12)
    assert abs(res.value - exact) <= 1e-14 * exact
    assert res.evaluations == 21
    rebuilt = integrate_singular_pair(
        lambda q, below, above: q * (q * q - lo * lo) * (hi * hi - q * q), lo, hi, 1e-12)
    assert abs(rebuilt.value - exact) > 1e-6 * exact


@pytest.mark.parametrize("w", [1e-2, 1e-6, 1e-12])
def test_sinh_map_flattens_a_lorentzian_of_known_width(w):
    # 1/(sin^2 t + w^2) peaks at t = 0 with width w, and 1/(cos^2 t + w^2) at
    # pi/2; each integrates to pi/(2 w sqrt(1 + w^2)) over (0, pi/2).  GK15 in t
    # bisects toward the first for 261, 651 and 1,251 evaluations, and toward
    # the second for 827,211 at w = 1e-12, where cos t of the rounded t is coarse
    exact = math.pi / (2.0 * w * math.sqrt(1.0 + w * w))
    for widths, f, n in (((w, 1.0), lambda s, c, dt: dt / (s * s + w * w), 1),
                         ((1.0, w), lambda s, c, dt: dt / (c * c + w * w), 1),
                         ((w, w), lambda s, c, dt: dt / (s * s + w * w) + dt / (c * c + w * w), 2)):
        res = quadrature._graded(f, 1e-10, *widths)
        assert abs(res.value - n * exact) <= 5e-16 * n * exact <= res.error_estimate
        assert res.evaluations == n * (141 if w == 1e-2 else 201)


@pytest.mark.parametrize("w", [1.0, 2.0, 2.0 ** -501, 0.0])
def test_sinh_map_outside_its_widths_integrates_in_t(w):
    # a width of 1 or more gains nothing, and below 2^-500 squares of the
    # distance from the end would underflow
    f = lambda s, c, dt: (s * c * dt, (1.0 + s) * dt)  # noqa: E731
    plain = integrate(lambda t: f(math.sin(t), math.cos(t), 1.0), 0.0, HALF_PI, 1e-12)
    assert quadrature._graded(f, 1e-12, w, w) == plain


def test_singular_pair_domain():
    for lo, hi in [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0)]:
        with pytest.raises(DomainError):
            integrate_singular_pair(lambda q, below, above: q, lo, hi)


def test_singular_pair_where_both_squares_underflow():
    # lo^2 and span sin^2 t both underflow near t = 0, so q = sqrt(lo^2 + span
    # sin^2 t) was 0 there: a bare ZeroDivisionError from g/q, then a typed
    # NonFiniteIntegrandError for an integral that is finite, K(sqrt(1 - lo^2)) =
    # ln(4/lo) + O(lo^2 ln lo); with a subnormal lo^2 (lo = 1e-160) the budget
    # ran out.  Below the normal range of lo^2, q is hypot(lo, sqrt(span) sin t)
    for lo in (1e-150, 1e-200, 1e-300):
        res = integrate_singular_pair(lambda q, below, above: 1.0, lo, 1.0)
        assert abs(res.value - (math.log(4.0) - math.log(lo))) <= 1e-12 * res.value
    # at lo = 5e-324 g/q itself overflows near t = 0: the panel's typed error
    with pytest.raises(NonFiniteIntegrandError):
        integrate_singular_pair(lambda q, below, above: 1.0, 5e-324, 1.0)


def test_determinism_bitwise():
    fn = lambda t: math.sqrt(1.0 - 0.64 * math.sin(t) ** 2)
    r1 = integrate(fn, 0.0, HALF_PI, 1e-12)
    r2 = integrate(fn, 0.0, HALF_PI, 1e-12)
    assert (r1.value, r1.error_estimate, r1.evaluations) == \
        (r2.value, r2.error_estimate, r2.evaluations)
    s1 = integrate_singular_pair(lambda q, below, above: q * q, 0.3, 1.1, 1e-12)
    s2 = integrate_singular_pair(lambda q, below, above: q * q, 0.3, 1.1, 1e-12)
    assert (s1.value, s1.error_estimate, s1.evaluations) == \
        (s2.value, s2.error_estimate, s2.evaluations)
    a1 = surface_area_quadrature(1.0, 1.3, 0.8, 1e-7)
    a2 = surface_area_quadrature(1.0, 1.3, 0.8, 1e-7)
    assert (a1.value, a1.error_estimate) == (a2.value, a2.error_estimate)


# one integrand as a float and as a 1-tuple: the two run the same loop
_KINDS = {"float": lambda g: g, "tuple": lambda g: lambda x: (g(x),)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_budget_exhaustion_raises(kind, monkeypatch):
    f = _KINDS[kind](lambda x: math.sin(50.0 * x))
    monkeypatch.setattr(quadrature, "MAX_EVALS", 100)
    with pytest.raises(NonConvergenceError, match="MAX_EVALS = 100 evaluations exhausted"):
        integrate(f, 0.0, 10.0, 1e-14)


def test_budget_bounds_every_oracle_caller(monkeypatch):
    # MAX_EVALS is the only budget control; 30 admits only the 21-point first
    # panel, so each caller raises unless one panel meets its tolerance,
    # whatever endpoint map its oracle uses; LOG_F needs 51 evaluations at
    # (1, 0.5, 0.9), and the area oracle 111 at (10, 0.1, 0.1), against one
    # panel at (2, 1.5, 1)
    monkeypatch.setattr(quadrature, "MAX_EVALS", 30)
    with pytest.raises(NonConvergenceError):
        check(IdentityId.LOG_F, EpsAB(1.0, 0.5, 0.9))
    with pytest.raises(NonConvergenceError):
        run_suite("integrals", grid=2)
    with pytest.raises(NonConvergenceError):
        surface_area_quadrature(10.0, 0.1, 0.1)



def test_budget_below_the_first_panel_raises_unevaluated(monkeypatch):
    # the 21-point first panel is the least an integral costs: a smaller
    # budget raises before any evaluation, and 21 admits that panel alone
    nodes = []

    def f(x):
        nodes.append(x)
        return x * x

    for budget in (0, 10, 20):
        monkeypatch.setattr(quadrature, "MAX_EVALS", budget)
        with pytest.raises(NonConvergenceError,
                           match=f"MAX_EVALS = {budget} evaluations exhausted"):
            integrate(f, 0.0, 1.0)
    assert nodes == []
    monkeypatch.setattr(quadrature, "MAX_EVALS", 21)
    res = integrate(f, 0.0, 1.0)
    assert res.evaluations == len(nodes) == 21
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-15)
    with pytest.raises(NonConvergenceError, match="MAX_EVALS = 21 evaluations exhausted"):
        integrate(math.sin, 0.0, 10.0 * math.pi)
    assert len(nodes) == 21

_GUARDS = {
    "triaxial_not_descending": lambda path: triaxial_area(1.0, 2.0, 3.0),
    "grid_size_zero": lambda path: grid_params(IdentityId.I1, 0),
    "grid_size_fraction": lambda path: grid_params(IdentityId.I1, 2.5),
    "grid_size_float": lambda path: grid_params(IdentityId.I1, 2.0),
    "grid_size_bool": lambda path: grid_params(IdentityId.I1, True),
    "integrate_reversed": lambda path: integrate(math.sin, 1.0, 0.0),
    "integrate_empty": lambda path: integrate(math.sin, 1.0, 1.0),
    "integrate_infinite": lambda path: integrate(math.sin, 0.0, math.inf),
    "integrate_tol_zero": lambda path: integrate(math.sin, 0.0, 1.0, 0.0),
    "quadrature_negative_axis": lambda path: surface_area_quadrature(1.0, -1.0, 1.0),
    "suite_unknown": lambda path: run_suite("nonsense", 2),
    "suite_grid_zero": lambda path: run_suite("series", 0),
    "suite_grid_bool": lambda path: run_suite("series", True),
    "suite_tol_zero": lambda path: run_suite("series", 2, 0.0),
    "report_format_xml": lambda path: write_report(Report("0", {}, None, ()), path, "xml"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_input_guards_raise_domain_error(case, tmp_path):
    path = tmp_path / "report"
    with pytest.raises(DomainError):
        _GUARDS[case](str(path))
    assert not path.exists()


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
    # in 1-tuples.  Both miss in their 21-point first panel, so their values
    # and estimates are those of the GK15 panels that bisection leaves
    for f, lo, hi, tol, pinned in [
            (lambda t: math.sqrt(1.0 - 0.81 * math.sin(t) ** 2), 0.0, HALF_PI, 1e-11,
             (1.171697052781614, 1.3008450458835852e-14, 81)),
            (lambda x: math.sin(50.0 * x), 0.0, 10.0, 1e-10,
             (0.037676985468630166, 9.512457278050712e-13, 3831))]:
        value, err, evals = pinned
        assert integrate(f, lo, hi, tol) == pinned
        assert integrate(lambda x: (f(x),), lo, hi, tol) == ((value,), (err,), evals)



def _bits(x):
    """x, or each entry of a tuple x, as (value, sign): -0.0 differs from 0.0."""
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x, math.copysign(1.0, x)


def _samples(rng, n):
    """n seeded panel samples, among them +-0.0, subnormals and 1e+-300."""
    pool = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
    return [rng.choice(pool) if rng.random() < 0.3 else
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.choice((0, 0, -300, 300, -160))
            for _ in range(n)]


@pytest.mark.parametrize("rule", ["_GK15", "_GK21"])
def test_pair_panel_equals_each_members_float_panel(rule):
    # both members of a pair share one rule pass, and each gets the bits of
    # its own float panel: values, error estimates and the sign of a zero
    rule = getattr(quadrature, rule)
    rng = random.Random(45)
    for _ in range(500):
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.choice((rng.uniform(1e-6, 4.0), 1e-300))
        us, vs = _samples(rng, len(rule[0])), _samples(rng, len(rule[0]))
        pair = quadrature._panel(lambda x, it=iter(zip(us, vs)): next(it), a, b, rule)
        alone = [quadrature._panel(lambda x, it=iter(col): next(it), a, b, rule)
                 for col in (us, vs)]
        assert isinstance(pair[0], tuple) and isinstance(pair[1], tuple)
        assert _bits(pair) == _bits(tuple(tuple(m[k][0] for m in alone) for k in (0, 1)))


def test_first_panel_results_are_unchanged():
    # pinned bit for bit: a float and a pair integral that stop at their
    # 21-point first panel, then the same through _graded with both ends
    # mapped, one first panel per half; a first panel whose value underflows
    # to -0.0 reads 0.0, as the sum of panels always has
    f = lambda t: math.sqrt(1.0 - 0.25 * math.sin(t) ** 2)  # noqa: E731
    assert integrate(f, 0.0, HALF_PI) == (1.4674622093394272, 1.6292103325759334e-14, 21)
    assert integrate(lambda t: (f(t), 1.0 / (1.0 + t * t)), 0.0, HALF_PI) == (
        (1.4674622093394272, 1.0038848218538872),
        (1.6292103325759334e-14, 2.056377441691278e-12), 21)
    peak = lambda s, c, dt: dt / math.sqrt(s * s + 0.25 * c * c)  # noqa: E731
    assert quadrature._graded(peak, 1e-10, 0.5, 0.5) == (
        2.156515647499643, 2.3942133248185316e-14, 42)
    assert quadrature._graded(lambda s, c, dt: (peak(s, c, dt), c * dt), 1e-10, 0.5, 0.5,
                              (2.0, 3.0)) == (
        (4.313031294999286, 3.0), (4.788426649637063e-14, 3.3306690738754696e-14), 42)
    res = integrate(lambda x: -1e-300, 0.0, 1e-30)
    assert _bits(res.value) == (0.0, 1.0) and res.evaluations == 21
    res = integrate(lambda x: (-1e-300, 1.0), 0.0, 1e-30)
    assert _bits(res.value) == ((0.0, 1.0), (1.0000000000000003e-30, 1.0))
    assert res.evaluations == 21


@pytest.mark.parametrize("f, hi, evals", [
    (lambda t: math.sqrt(1.0 - 0.25 * math.sin(t) ** 2), HALF_PI, 21),
    (lambda t: math.sin(50.0 * t), 10.0, 3831)])
def test_one_and_three_component_tuples_match_their_floats(f, hi, evals):
    # a 1-tuple and a 3-tuple take one rule pass per member; with components
    # that differ by powers of 2 the subdivision is shared, so each component
    # is its float integral bit for bit
    lo = 0.0
    scales = (1.0, 4.0, -0.125)
    alone = [integrate(lambda t, k=k: k * f(t), lo, hi) for k in scales]
    assert [r.evaluations for r in alone] == [evals] * 3
    one = integrate(lambda t: (f(t),), lo, hi)
    assert one == ((alone[0].value,), (alone[0].error_estimate,), evals)
    three = integrate(lambda t: tuple(k * f(t) for k in scales), lo, hi)
    assert three == (tuple(r.value for r in alone), tuple(r.error_estimate for r in alone), evals)

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


def test_tuple_budget_counts_shared_evaluations_once(monkeypatch):
    nodes = []

    def f(x):
        nodes.append(x)
        return math.sin(50.0 * x), math.cos(50.0 * x)

    res = integrate(f, 0.0, 10.0, 1e-10)
    assert res.evaluations == len(nodes)
    # a budget of exactly that many evaluations suffices; one fewer does not
    monkeypatch.setattr(quadrature, "MAX_EVALS", res.evaluations)
    assert integrate(f, 0.0, 10.0, 1e-10) == res
    monkeypatch.setattr(quadrature, "MAX_EVALS", res.evaluations - 1)
    with pytest.raises(NonConvergenceError):
        integrate(f, 0.0, 10.0, 1e-10)


def test_tuple_singular_pair():
    # g(q) = (q, q^3): pi/2 and pi/4 (lo^2 + hi^2); a third component equal to
    # the first shares the subdivision, so the pair's bits repeat in the triple
    res = integrate_singular_pair(lambda q, below, above: (q, q ** 3), 0.3, 0.9, 1e-12)
    assert res.value[0] == pytest.approx(HALF_PI, rel=1e-12)
    assert res.value[1] == pytest.approx(math.pi / 4.0 * (0.09 + 0.81), rel=1e-12)
    triple = integrate_singular_pair(lambda q, below, above: (q, q ** 3, q), 0.3, 0.9, 1e-12)
    assert triple == (res.value + res.value[:1], res.error_estimate + res.error_estimate[:1],
                      res.evaluations)


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
