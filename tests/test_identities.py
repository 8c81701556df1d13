"""Tests for the integral-identity catalog.

Every closed form is pinned against a frozen 30-digit reference and
against live adaptive quadrature of its defining left-hand side.  The
registry plumbing (parameter domains, pinned grids, verification
records) is exercised alongside the cross-identity algebra:
alternate D-function forms, parameter round trips, kernel-swap relations,
and the four single-integral routes to the ellipsoid area.
"""

import hashlib
import math
import pickle

import pytest

from ellint import elliptic, geometry, identities, quadrature
from ellint import (
    DomainError,
    IdentityId,
    check,
    closed_value,
    grid_params,
    incomplete_d,
    incomplete_f,
    oracle_value,
)
from ellint._options import IDENTITY_TOL
from ellint.identities import (
    REGISTRY,
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
    alpha_k_from_eccentricities,
    alpha_kbar_from_barred,
    arctanh_guarded,
    i1_barred_closed,
    i1_closed,
    make_record,
)
from ellint.verify import (
    area_via_arctan_kernel,
    area_via_barred_weighted_e,
    area_via_log_kernel,
    area_via_weighted_e_integral,
    identity_records,
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
        assert callable(entry.oracle)
        assert IdentityId(ident.value) is ident


@pytest.mark.parametrize("ident", list(IdentityId), ids=[i.value for i in IdentityId])
def test_grid_params_in_domain(ident, n=4):
    params = grid_params(ident, n)
    assert len(params) == n * n
    entry = REGISTRY[ident]
    for p in params:
        assert isinstance(p, entry.params_cls)


# sha256 of the grids at n = 1, 4 and 5, one "Class(values)" repr per line;
# float repr round-trips, so equal digests mean equal points.  The verify
# report's records sit at these points, so any change to them is a change
# of the report
GRID_DIGESTS = {
    "I1": "2cd48aa66f96fd895f383cdc3ba32438a095cfb4ba0f87573a2e903d9ee758b6",
    "I1_BARRED": "e6f458b65cb5cd8298848c7b085957b37f203d2d741a730319b40f316c3a84a9",
    "PR3_D": "422dbeded0abec78156d5072b68aad32c08a7637e16e1a23ed43006890d29b6b",
    "PR3_D_BARRED": "e6f458b65cb5cd8298848c7b085957b37f203d2d741a730319b40f316c3a84a9",
    "LOG_F": "e9841592879bda6a251de2c2582a161210b31c6f0deba0d4432568c00c775b05",
    "LOG_Q2": "e9841592879bda6a251de2c2582a161210b31c6f0deba0d4432568c00c775b05",
    "PSEUDO": "8c6cfd23fa393b726dc807b1418c8451991859c3cafeea0748fab008574548c5",
    "I3": "bf7915c751695ba2620d439d7e3b276c1a967d2f5a36fffa1da00723fafb1749",
    "I4": "639b555c7ffbfd7570f0fb6f04339ca2ec297f48ec487110df11882002f59cef",
    "I5": "639b555c7ffbfd7570f0fb6f04339ca2ec297f48ec487110df11882002f59cef",
    "I6": "bf7915c751695ba2620d439d7e3b276c1a967d2f5a36fffa1da00723fafb1749",
    "I2_BARRED": "3f64e8558555cefa3e20c9d92c928879fe17a8ca33f78ebd143d3fa325f4f142",
    "I3_BARRED": "3f64e8558555cefa3e20c9d92c928879fe17a8ca33f78ebd143d3fa325f4f142",
    "GR_E_SIN": "c00b70f7f5c0ad6c3e27faea05e0c799de496f7c0456f56aa8394a420c4f7459",
    "GR_F_SIN": "c00b70f7f5c0ad6c3e27faea05e0c799de496f7c0456f56aa8394a420c4f7459",
    "ATAN_F": "a8525577a31823ec7ad333da29457821a066828e9c0cc17a80fadcee5da9a630",
    "ATAN_E": "a8525577a31823ec7ad333da29457821a066828e9c0cc17a80fadcee5da9a630",
}


@pytest.mark.parametrize("ident", list(IdentityId), ids=[i.value for i in IdentityId])
def test_grids_are_pinned(ident):
    text = "\n".join(f"{type(p).__name__}{tuple(p)!r}"
                     for n in (1, 4, 5) for p in grid_params(ident, n))
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGESTS[ident.value]


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


def test_parameter_records_are_validated_named_tuples():
    for ident, entry in REGISTRY.items():
        p = grid_params(ident, 2)[0]
        cls = entry.params_cls
        assert isinstance(p, tuple) and p._fields == cls._fields
        copy = pickle.loads(pickle.dumps(p))
        assert type(copy) is cls and copy == p == cls(**p._asdict())
        with pytest.raises(AttributeError):
            setattr(p, cls._fields[0], 0.5)
        for field in cls._fields:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    p._replace(**{field: bad})


@pytest.mark.parametrize("params", [
    NuK(1.4722194895832188, 0.9),
    *(NuK(math.atanh(k * (1.0 - 4e-16)), k) for k in (1e-9, 1e-5, 0.5)),
], ids=repr)
def test_cosh_kernel_closed_forms_at_the_edge(params):
    # NuK admits 0 < tanh(nu) < k < 1 and is the one gate of I3 and I6; within
    # about 1e-15 of tanh(nu) = k the arctanh guard raises, at every k
    for ident in (IdentityId.I3, IdentityId.I6):
        with pytest.raises(DomainError):
            closed_value(ident, params)


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


def _eccentricities_from_alpha_k(p: AlphaK) -> tuple:
    # inverse map: e1 = alpha/sqrt(k'^2 + k^2 alpha^2), e2 = k e1
    s = math.sqrt(1.0 - p.k * p.k + (p.k * p.alpha) ** 2)
    return (p.alpha / s, p.k * p.alpha / s)


def test_alpha_k_round_trip():
    for i in range(6):
        e1 = 0.1 + 0.14 * i
        for j in range(6):
            e2 = e1 * (j + 0.5) / 6.5
            p = alpha_k_from_eccentricities(e1, e2)
            back = _eccentricities_from_alpha_k(p)
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


def test_kernel_swap_relations():
    records = kernel_relation_records(50)
    assert len(records) == 100
    assert all(r.passed for r in records)
    # direct spot checks of the cos^2 <-> sin^2 swap
    for xi, kbar in [(0.4, 0.3), (1.1, 0.8)]:
        swap = PsiKBar(math.pi / 2.0 - xi, kbar)
        assert closed_value(IdentityId.I2_BARRED, swap) == pytest.approx(
            closed_value(IdentityId.GR_E_SIN, XiKBar(xi, kbar)), rel=1e-11)
        assert closed_value(IdentityId.I3_BARRED, swap) == pytest.approx(
            closed_value(IdentityId.GR_F_SIN, XiKBar(xi, kbar)), rel=1e-11)
        # and the swap is an involution: going back recovers the originals
        assert closed_value(IdentityId.GR_E_SIN, XiKBar(math.pi / 2.0 - swap.psi, kbar)) == \
            pytest.approx(closed_value(IdentityId.I2_BARRED, swap), rel=1e-11)


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


def test_oracle_result_shape():
    res = oracle_value(IdentityId.PSEUDO, E1E2(0.8, 0.4), 1e-10)
    assert res.error_estimate <= 1e-9 * abs(res.value)
    assert res.evaluations >= 15


def test_pseudo_oracle_cost():
    # through the singular-pair substitution; direct quadrature of the bounded
    # integrand bisected toward its square-root zeros and took 1,215
    p = E1E2(0.8, 0.4)
    res = oracle_value(IdentityId.PSEUDO, p)
    assert res.value == pytest.approx(closed_value(IdentityId.PSEUDO, p), rel=1e-13)
    assert res.evaluations <= 150


# oracle evaluations over grid_params(ident, 5); the two rows of a paired
# part (I3/I6, I4/I5, I2_BARRED/I3_BARRED, GR_E_SIN/GR_F_SIN, LOG_F/LOG_Q2,
# ATAN_F/ATAN_E) share one integral per point and report its count
GRID5_ORACLE_EVALS = {
    "I1": 765, "I1_BARRED": 435, "PR3_D": 1125, "PR3_D_BARRED": 1275,
    "LOG_F": 855, "LOG_Q2": 855, "PSEUDO": 2505, "I3": 2325, "I4": 5595,
    "I5": 5595, "I6": 2325, "I2_BARRED": 1095, "I3_BARRED": 1095,
    "GR_E_SIN": 1095, "GR_F_SIN": 1095, "ATAN_F": 855, "ATAN_E": 855,
}
_PAIRS = (("I3", "I6"), ("I4", "I5"), ("I2_BARRED", "I3_BARRED"),
          ("GR_E_SIN", "GR_F_SIN"), ("LOG_F", "LOG_Q2"), ("ATAN_F", "ATAN_E"))


def test_oracle_evaluation_counts_at_grid_5():
    counts = {ident.value: sum(oracle_value(ident, p).evaluations
                               for p in grid_params(ident, 5))
              for ident in IdentityId}
    assert counts == GRID5_ORACLE_EVALS
    assert sum(counts.values()) - sum(counts[b] for _, b in _PAIRS) == 17_925


def test_paired_rows_share_their_part():
    for a, b in _PAIRS:
        ea, eb = REGISTRY[IdentityId(a)], REGISTRY[IdentityId(b)]
        assert ea.oracle is eb.oracle and {ea.component, eb.component} == {0, 1}
    paired = {i for pair in _PAIRS for i in pair}
    assert all(entry.component is None
               for ident, entry in REGISTRY.items() if ident.value not in paired)


def test_identity_records_integrate_each_pair_once(monkeypatch):
    # one integrate call and one closed-body call per unpaired row and per pair
    # at each grid point: 275 of each and 17,925 evaluations, against 425 calls
    # of each with every row evaluated on its own
    plain = quadrature.integrate
    calls = []
    bodies = []

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        calls.append(res.evaluations)
        return res

    def counting(closed):
        def body(p):
            bodies.append(closed)
            return closed(p)
        return body

    # identities reads quadrature.integrate at call time
    monkeypatch.setattr(quadrature, "integrate", counted)
    for ident, entry in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, ident, entry._replace(closed=counting(entry.closed)))
    records = identity_records(5)
    assert len(records) == 425 and all(r.passed for r in records)
    assert (len(calls), sum(calls)) == (275, 17_925)
    assert len(bodies) == 275 and len(set(bodies)) == 11


def test_oracles_share_no_code_with_elliptic(monkeypatch):
    # the Carlson loops and the AGM behind the closed forms, and K and E
    # themselves, raise wherever a module binds them, yet all 17 identity
    # oracles and the area oracle still run
    expected = {ident: oracle_value(ident, grid_params(ident, 2)[1]) for ident in IdentityId}
    area = quadrature.surface_area_quadrature(2.0, 1.5, 1.0)

    def refuse(*args):
        raise AssertionError("the oracle called elliptic")

    for module in (elliptic, identities, geometry, quadrature):
        for name in ("_fe_sc", "_rf_rd", "_agm", "carlson_rf", "complete_e", "complete_k"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        closed_value(IdentityId.I5, MuK(1.0, 0.3))
    with pytest.raises(AssertionError):
        closed_value(IdentityId.PR3_D_BARRED, AlphaKBar(0.3, 0.6))
    for ident, res in expected.items():
        assert oracle_value(ident, grid_params(ident, 2)[1]) == res
    assert quadrature.surface_area_quadrature(2.0, 1.5, 1.0) == area


def test_sweep_records_read_the_oracle_value():
    # oracle_value and the sweep take one code path: each record's oracle is
    # oracle_value at its point, bit for bit
    for rec in identity_records(3):
        ident = IdentityId(rec.ident)
        params = REGISTRY[ident].params_cls(**rec.params)
        assert rec.oracle == oracle_value(ident, params).value


@pytest.mark.parametrize("ident,params,evals", [
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-9), 45),
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-6), 45),
    (IdentityId.PR3_D, AlphaZ(1e6, 1.0), 45),
    (IdentityId.PR3_D_BARRED, AlphaKBar(1e-6, 0.5), 45),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.999, 0.999999), 75),
], ids=["z_1e-9", "z_1e-6", "alpha_1e6", "alpha_1e-6", "kbar_near_1"])
def test_graded_oracle_at_lower_end_edges(ident, params, evals):
    # the graded map must keep the lower end u = z resolved, a narrow feature
    # when z << alpha; in swapped order it is the P log P term of the inner
    # integral at theta = pi/2, where cos theta is about z/alpha
    closed = closed_value(ident, params)
    res = oracle_value(ident, params)
    assert abs(res.value - closed) <= 1e-13 * abs(closed)
    assert res.evaluations == evals


def test_record_pass_rule():
    # one rule at every size, rel_err <= tol: an exact zero passes only against
    # an exact zero, and a NaN on either side fails
    assert make_record("X", {}, 0.0, 0.0, 1e-8).passed
    for closed, oracle in [(-0.0, 1.2e-34), (0.0, 5e-324), (1e-9, 1e-9 + 5e-13),
                           (math.nan, 1.0), (1.0, math.nan)]:
        assert not make_record("X", {}, closed, oracle, 1e-8).passed
    assert make_record("X", {}, 1e-300, 1e-300 * (1.0 + 5e-9), 1e-8).passed
    plain = make_record("X", {}, 2.0, 2.0 + 1e-9, 1e-8)
    assert plain.passed and plain.abs_err == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("ident", [IdentityId.I4, IdentityId.I5])
def test_sinh_kernel_records_fail_for_small_mutants(ident, monkeypatch):
    # the grid-5 records of I4 and I5 under a mutant of one member of the
    # pair's closed body: 1 + 1e-6 times it fails all 25, and it plus 5e-13 the
    # five at mu = 19, whose values are about 1e-16.  Under the absolute bound
    # once applied below |closed| = 1e-6, five and none of them failed
    points = grid_params(ident, 5)
    at_19 = [p for p in points if p.mu > 18.0]
    assert len(at_19) == 5
    oracles = [oracle_value(ident, p).value for p in points]
    entry = REGISTRY[ident]
    assert entry.closed is identities.sinh_closed

    def mutant_of(change):
        return lambda p: tuple(change(v) if c == entry.component else v
                               for c, v in enumerate(entry.closed(p)))

    for mutant, failing in [(mutant_of(lambda v: v * (1.0 + 1e-6)), points),
                            (mutant_of(lambda v: v + 5e-13), at_19)]:
        monkeypatch.setitem(REGISTRY, ident, entry._replace(closed=mutant))
        records = [make_record(ident.value, p._asdict(), closed_value(ident, p), o, IDENTITY_TOL)
                   for p, o in zip(points, oracles)]
        assert [p for p, r in zip(points, records) if not r.passed] == failing


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
