"""Tests for the integral-identity catalog.

Every closed form is pinned against a frozen 30-digit reference and
against live adaptive quadrature of its defining left-hand side.  The
registry plumbing (parameter domains, integrand descriptors, grids,
verification records) is exercised alongside the cross-identity algebra:
alternate D-function forms, parameter round trips, kernel-swap relations,
and the four single-integral routes to the ellipsoid area.
"""

import math

import pytest

from ellint import (
    DomainError,
    IdentityId,
    KernelSingularityError,
    Singularity,
    check,
    closed_value,
    complete_e,
    complete_k,
    grid_params,
    incomplete_d,
    incomplete_f,
    integrand,
    integrate,
    oracle_value,
)
from ellint.identities import (
    REGISTRY,
    NEAR_ZERO_ABS_TOL,
    NEAR_ZERO_CUTOFF,
    AlphaK,
    AlphaKBar,
    AlphaZ,
    E1E2,
    EpsAB,
    FBar,
    MuK,
    NuK,
    PsiKBar,
    XiKBar,
    _check_cosh_kernel,
    alpha_k_from_eccentricities,
    alpha_kbar_from_barred,
    arctanh_guarded,
    eccentricities_from_alpha_k,
    i1_barred_closed,
    i1_closed,
    make_record,
    pi_third_special,
)
from ellint.verify import (
    area_via_arctan_kernel,
    area_via_barred_weighted_e,
    area_via_log_kernel,
    area_via_weighted_e_integral,
    kernel_relation_records,
)

SQ3 = math.sqrt(3.0)

FROZEN = [
    (IdentityId.I1, AlphaK(0.5, 0.6), 1.5428567047361814051),
    (IdentityId.I1_BARRED, AlphaKBar(0.4, 0.7), 4.3284512618758357225),
    (IdentityId.PR3_D, AlphaZ(0.8, 1.0), 0.72025539022555337501),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.3, 0.9), 0.49167239496991963078),
    (IdentityId.LOG_F, EpsAB(1.5, 0.3, 0.9), 2.2623961177420099287),
    (IdentityId.LOG_Q2, EpsAB(2.0, 0.5, 1.2), 1.4708220374122395035),
    (IdentityId.PSEUDO, E1E2(0.8, 0.4), 0.20434633395298520405),
    (IdentityId.I3, NuK(0.3, 0.8), 0.57848219819021460166),
    (IdentityId.I4, MuK(0.7, 0.5), 0.39389405715287897439),
    (IdentityId.I5, MuK(1.0, 0.3), 0.461914815117305642),
    (IdentityId.I6, NuK(0.4, 0.9), 0.50245334911187241046),
    (IdentityId.I2_BARRED, PsiKBar(0.6, 0.7), 0.5715873964382122018),
    (IdentityId.I3_BARRED, PsiKBar(0.5, 0.6), 0.58025745592910597723),
    (IdentityId.GR_E_SIN, XiKBar(math.pi / 4.0, 0.5), 0.45035340258882647594),
    (IdentityId.GR_F_SIN, XiKBar(0.8, 0.4), 0.4467135288230547462),
    (IdentityId.ATAN_F, FBar(SQ3, math.sqrt(7.0) / 3.0), 1.0969405782077273804),
    (IdentityId.ATAN_E, FBar(2.0, 0.5), 2.0770682584629381221),
]


@pytest.mark.parametrize("ident,params,expected", FROZEN,
                         ids=[f[0].value for f in FROZEN])
def test_frozen_closed_values(ident, params, expected):
    assert closed_value(ident, params) == pytest.approx(expected, rel=5e-14)


@pytest.mark.parametrize("ident,params,expected", FROZEN,
                         ids=[f[0].value for f in FROZEN])
def test_oracle_agrees_with_closed(ident, params, expected):
    rec = check(ident, params)
    assert rec.passed, (rec.rel_err, rec.abs_err)
    assert rec.oracle == pytest.approx(expected, rel=1e-9)


def test_registry_covers_every_identity():
    assert set(REGISTRY) == set(IdentityId)
    for ident, entry in REGISTRY.items():
        assert callable(entry.closed)
        assert callable(entry.part)
        assert callable(entry.sampler)
        assert IdentityId(ident.value) is ident


@pytest.mark.parametrize("ident", list(IdentityId), ids=[i.value for i in IdentityId])
def test_grid_params_in_domain(ident, n=4):
    params = grid_params(ident, n)
    assert len(params) == n * n
    entry = REGISTRY[ident]
    for p in params:
        assert isinstance(p, entry.params_cls)
        lo, hi = entry.bounds(p)
        assert lo < hi


def test_closed_value_rejects_wrong_parameter_kind():
    with pytest.raises(DomainError):
        closed_value(IdentityId.I1, E1E2(0.8, 0.4))
    with pytest.raises(DomainError):
        oracle_value(IdentityId.PSEUDO, AlphaK(0.5, 0.6))


@pytest.mark.parametrize("ctor,args", [
    (AlphaK, (1.2, 0.5)), (AlphaK, (0.5, 1.0)), (AlphaK, (0.0, 0.5)),
    (AlphaZ, (-0.1, 1.0)), (AlphaZ, (0.5, 0.0)),
    (AlphaKBar, (0.8, 0.7)), (AlphaKBar, (0.4, 1.1)),
    (EpsAB, (1.0, 0.9, 0.3)), (EpsAB, (0.5, 0.3, 0.9)),
    (NuK, (0.9, 0.5)), (NuK, (-0.1, 0.5)),
    (MuK, (-1.0, 0.5)), (MuK, (0.5, 1.0)),
    (PsiKBar, (2.0, 0.5)), (PsiKBar, (0.5, 0.0)),
    (XiKBar, (0.0, 0.5)), (XiKBar, (0.5, 1.0)),
    (E1E2, (0.4, 0.8)), (E1E2, (1.0, 0.5)),
    (FBar, (0.5, 2.0)), (FBar, (2.0, 0.0)),
])
def test_parameter_domain_rejection(ctor, args):
    with pytest.raises(DomainError):
        ctor(*args)


def test_cosh_kernel_guard():
    # tanh(nu) < k keeps the kernel positive; the guard is the defensive
    # complement for raw inputs that bypass the dataclass validation
    with pytest.raises(KernelSingularityError):
        _check_cosh_kernel(0.9, 0.5)
    assert issubclass(KernelSingularityError, DomainError)
    assert _check_cosh_kernel(0.3, 0.8) == pytest.approx(0.6, rel=1e-15)


def test_arctanh_guarded():
    for x in (-0.99, -0.3, 0.0, 0.5, 0.999999):
        assert arctanh_guarded(x) == pytest.approx(
            0.5 * math.log((1.0 + x) / (1.0 - x)), rel=1e-14, abs=1e-300)
    for x in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            arctanh_guarded(x)


def _i1_d_form(p: AlphaK) -> float:
    # same value written through D instead of E
    kp2 = 1.0 - p.k * p.k
    d = kp2 + (p.k * p.alpha) ** 2
    lam = math.asin(p.alpha / math.sqrt(d))
    return (math.pi / 4.0) * (
        p.alpha * math.sqrt(1.0 - p.alpha ** 2) / (d * d)
        - (p.alpha * p.k) ** 2 * incomplete_d(lam, p.k) / (kp2 * d ** 1.5)
        + incomplete_f(lam, p.k) / (kp2 * math.sqrt(d)))


def _i1_barred_d_form(p: AlphaKBar) -> float:
    k2 = p.kbar ** 2
    diff = k2 - p.alpha ** 2
    phib = math.asin(p.alpha / p.kbar)
    return (math.pi / 4.0) * (
        p.alpha * math.sqrt(1.0 - p.alpha ** 2) / (k2 * diff)
        + (incomplete_f(phib, p.kbar)
           - p.alpha ** 2 * incomplete_d(phib, p.kbar)) / diff ** 1.5)


def test_weighted_e_alternate_d_form():
    for p in grid_params(IdentityId.I1, 6):
        assert _i1_d_form(p) == pytest.approx(i1_closed(p), rel=1e-13)


def test_barred_weighted_e_alternate_d_form():
    for p in grid_params(IdentityId.I1_BARRED, 6):
        assert _i1_barred_d_form(p) == pytest.approx(i1_barred_closed(p), rel=1e-13)


def test_alpha_k_round_trip():
    for i in range(6):
        e1 = 0.1 + 0.14 * i
        for j in range(6):
            e2 = e1 * (j + 0.5) / 6.5
            p = alpha_k_from_eccentricities(e1, e2)
            back = eccentricities_from_alpha_k(p)
            assert back[0] == pytest.approx(e1, rel=1e-14)
            assert back[1] == pytest.approx(e2, rel=1e-14)


def test_barred_parameter_map_exact_values():
    p = alpha_kbar_from_barred(SQ3, math.sqrt(7.0) / 3.0)
    assert p.alpha == pytest.approx(math.sqrt(5.0) / 3.0, rel=1e-14)
    assert p.kbar == pytest.approx(math.sqrt(20.0 / 27.0), rel=1e-14)


@pytest.mark.parametrize("route,axes", [
    (area_via_weighted_e_integral, (2.0, 1.5, 1.0)),
    (area_via_log_kernel, (2.0, 1.5, 1.0)),
    (area_via_barred_weighted_e, (1.0, 1.5, 2.0)),
    (area_via_arctan_kernel, (1.0, 1.5, 2.0)),
])
def test_single_integral_routes(route, axes):
    assert route(*axes) == pytest.approx(27.886442473502580631, rel=1e-10)


def test_endpoint_bracket_is_exact():
    # the arctan argument hits +1 at the top endpoint and -1 at the bottom,
    # so the bracket evaluates to exactly +/- pi/4
    e1, e2 = 0.8, 0.3

    def bracket(q):
        up = math.sqrt(q * q - e2 * e2)
        dn = math.sqrt(e1 * e1 - q * q)
        return math.atan((up - dn) / (up + dn))

    assert bracket(e1) == math.atan(1.0) == math.pi / 4.0
    assert bracket(e2) == -math.pi / 4.0


def test_third_kind_special_case_vs_quadrature():
    import random
    rng = random.Random(5151)
    for _ in range(20):
        e1 = rng.uniform(0.2, 0.95)
        e2 = rng.uniform(0.05, e1 * 0.95)
        u = rng.uniform(0.1, 1.5)
        kp2 = 1.0 - (e2 / e1) ** 2

        def fn(t):
            return (1.0 - kp2 * math.sin(t) ** 2) ** -1.5

        ref = integrate(fn, 0.0, u, 1e-12).value
        assert pi_third_special(u, e1, e2) == pytest.approx(ref, rel=1e-10)


def test_kernel_swap_relations():
    records = kernel_relation_records(50)
    assert len(records) == 100
    assert all(r.passed for r in records)
    # direct spot checks of the cos^2 <-> sin^2 swap
    from ellint.identities import (gr_e_sin_closed, gr_f_sin_closed,
                                   i2_barred_closed, i3_barred_closed)
    for xi, kbar in [(0.4, 0.3), (1.1, 0.8)]:
        swap = PsiKBar(math.pi / 2.0 - xi, kbar)
        assert i2_barred_closed(swap) == pytest.approx(
            gr_e_sin_closed(XiKBar(xi, kbar)), rel=1e-11)
        assert i3_barred_closed(swap) == pytest.approx(
            gr_f_sin_closed(XiKBar(xi, kbar)), rel=1e-11)
        # and the swap is an involution: going back recovers the originals
        assert gr_e_sin_closed(XiKBar(math.pi / 2.0 - swap.psi, kbar)) == \
            pytest.approx(i2_barred_closed(swap), rel=1e-11)


@pytest.mark.parametrize("ident,params", [
    (IdentityId.I3, NuK(1e-4, 0.8)),
    (IdentityId.I4, MuK(1e-4, 0.5)),
    (IdentityId.I5, MuK(1e-4, 0.3)),
    (IdentityId.I6, NuK(1e-4, 0.9)),
], ids=["I3", "I4", "I5", "I6"])
def test_small_parameter_corners(ident, params):
    # the closed forms are 0/0-scaled at vanishing nu or mu; they must
    # still track the integral to 1e-6 at 1e-4
    closed = closed_value(ident, params)
    oracle = oracle_value(ident, params, 1e-12).value
    assert abs(closed - oracle) / max(abs(closed), 1e-6) <= 1e-6


def test_integrand_descriptors():
    spec = integrand(IdentityId.PSEUDO, E1E2(0.8, 0.4))
    assert (spec.lo, spec.hi) == (0.4, 0.8)
    assert spec.singularity is Singularity.NONE
    # bounded integrand: direct quadrature matches the closed form
    direct = integrate(spec.fn, spec.lo, spec.hi, 1e-12).value
    assert direct == pytest.approx(closed_value(IdentityId.PSEUDO, E1E2(0.8, 0.4)),
                                   rel=1e-9)

    spec = integrand(IdentityId.LOG_F, EpsAB(1.0, 0.3, 0.9))
    assert (spec.lo, spec.hi) == (0.3, 0.9)
    assert spec.singularity is Singularity.INV_SQRT_BOTH
    assert spec.fn(0.6) > 0.0

    spec = integrand(IdentityId.I3, NuK(0.3, 0.8))
    assert spec.lo == 0.0 and spec.hi == pytest.approx(math.pi / 2.0)
    assert spec.singularity is Singularity.NONE


def test_oracle_result_shape():
    res = oracle_value(IdentityId.PSEUDO, E1E2(0.8, 0.4), 1e-10)
    assert res.error_estimate <= 1e-9 * abs(res.value)
    assert res.evaluations >= 15


def test_record_near_zero_rule():
    ok = make_record("X", {}, 1e-9, 1e-9 + 5e-13, 1e-8)
    assert ok.passed and ok.rel_err > 1e-8
    bad = make_record("X", {}, 1e-9, 1e-9 + 5e-12, 1e-8)
    assert not bad.passed
    plain = make_record("X", {}, 2.0, 2.0 + 1e-9, 1e-8)
    assert plain.passed and plain.abs_err == pytest.approx(1e-9, rel=1e-6)
    assert NEAR_ZERO_CUTOFF == 1e-6 and NEAR_ZERO_ABS_TOL == 1e-12


def test_check_record_fields():
    rec = check(IdentityId.I5, MuK(1.0, 0.3), 1e-8)
    assert rec.ident == "I5"
    assert rec.params == {"mu": 1.0, "k": 0.3}
    assert rec.abs_err == abs(rec.closed - rec.oracle)
    assert rec.passed


def test_pseudo_degenerate_limit():
    # as e2 -> e1 the interval collapses and the value vanishes
    # quadratically without cancellation
    val = closed_value(IdentityId.PSEUDO, E1E2(0.6, 0.6 - 1e-8))
    expected = (math.pi / 2.0) * 1e-16 / (1.0 - 0.36 + 0.64)
    assert val == pytest.approx(expected, rel=1e-6)
