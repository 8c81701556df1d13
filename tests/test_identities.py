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
from fractions import Fraction

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
    cosh_closed,
    i1_barred_closed,
    i1_closed,
    make_record,
)
from ellint.verify import (
    angle_face_records,
    area_via_arctan_kernel,
    area_via_barred_weighted_e,
    area_via_log_kernel,
    area_via_weighted_e_integral,
    identity_records,
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
        assert callable(getattr(identities._oracles, entry.oracle))
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
    # NuK admits 0 < tanh(nu) < k < 1 and is the one gate of I3 and I6.  A gap
    # guard raised DomainError here, once k - tanh(nu) <= 1e-15 k; the gap of
    # _tanh_gap keeps its digits, so both are finite and positive (their
    # values against mpmath are in tests/test_reference.py)
    for ident in (IdentityId.I3, IdentityId.I6):
        value = closed_value(ident, params)
        assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("k", [1e-9, 1e-5, 0.5, 0.9])
def test_cosh_closed_gap_guard(k):
    # cosh_closed raised DomainError once the float k - tanh(nu) was at most
    # 1e-15 k.  The nu one ulp apart around atanh(k (1 - 1e-15)) give float
    # gaps on both sides of that guard; with the exact gap both members are
    # finite there and grow strictly with nu, as atanh(tanh(nu)/k) does
    nu = math.atanh(k * (1.0 - 1e-15))
    for _ in range(20):
        nu = math.nextafter(nu, 0.0)
    sides, values = set(), []
    for _ in range(40):
        gap = k - math.tanh(nu)
        if gap <= 0.0:  # outside NuK's class
            break
        sides.add(gap <= 1e-15 * k)
        values.append(cosh_closed(NuK(nu, k)))
        nu = math.nextafter(nu, math.inf)
    assert sides == {True, False}
    for member in zip(*values):
        assert all(math.isfinite(v) for v in member)
        assert all(a < b for a, b in zip(member, member[1:]))


def test_tanh_gap_where_only_the_rounded_tanh_is_inside_the_class():
    # math.tanh(nu) < k admits this point to NuK, but the exact tanh(nu) is
    # above k: no gap, so both sides raise DomainError, not a bare ValueError
    params = NuK(0.49041614975903763, 0.454546663076062)
    for ident in (IdentityId.I3, IdentityId.I6):
        for side in (closed_value, oracle_value):
            with pytest.raises(DomainError, match="exactly"):
                side(ident, params)


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


def _sqrt_rel(x: float, square: Fraction) -> float:
    # relative error of x as sqrt(square), exact to first order: |x^2 - square|/(2 square)
    return float(abs(Fraction(x) ** 2 - square) / (2 * square))


def test_alpha_k_map_at_close_eccentricities():
    # e1^2 - e2^2 as a difference of rounded squares: alpha was 2.1e-7 off
    e1, e2 = 0.9, 0.9 * (1.0 - 1e-10)
    p = alpha_k_from_eccentricities(e1, e2)
    f1, f2 = Fraction(e1), Fraction(e2)
    assert _sqrt_rel(p.alpha, (f1 * f1 - f2 * f2) / (1 - f2 * f2)) <= 4e-16
    assert p.k == e2 / e1


def test_barred_parameter_map_at_close_f():
    # f1^2 - f2^2 and 1 - (f2/f1)^2 as differences of rounded squares: alpha
    # and kbar were 2.8e-10 off
    f1, f2 = 0.5, 0.5 * (1.0 - 1e-8)
    p = alpha_kbar_from_barred(f1, f2)
    d2 = (Fraction(f1) - Fraction(f2)) * (Fraction(f1) + Fraction(f2))
    assert _sqrt_rel(p.alpha, d2 / (1 + Fraction(f1) ** 2)) <= 4e-16
    assert _sqrt_rel(p.kbar, d2 / Fraction(f1) ** 2) <= 4e-16


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
    # each closed row against the other kernel's oracle at the complementary
    # angle: closed body and oracle share no code, so this checks the
    # cos^2 <-> sin^2 swap itself, both ways
    rows = [(IdentityId.GR_E_SIN, IdentityId.I2_BARRED), (IdentityId.GR_F_SIN, IdentityId.I3_BARRED)]
    for xi, kbar in [(0.05, 0.05), (0.4, 0.3), (0.8, 0.6), (1.1, 0.8), (1.5, 0.95)]:
        sin_p, cos_p = XiKBar(xi, kbar), PsiKBar(math.pi / 2.0 - xi, kbar)
        for sin_row, cos_row in rows:
            assert closed_value(sin_row, sin_p) == pytest.approx(
                oracle_value(cos_row, cos_p).value, rel=1e-11)
            assert closed_value(cos_row, cos_p) == pytest.approx(
                oracle_value(sin_row, sin_p).value, rel=1e-11)


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
    oracle = oracle_value(ident, params).value
    assert abs(closed - oracle) / max(abs(closed), 1e-6) <= 1e-6


def test_oracle_result_shape():
    res = oracle_value(IdentityId.PSEUDO, E1E2(0.8, 0.4))
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
    "I1": 525, "I1_BARRED": 525, "PR3_D": 525, "PR3_D_BARRED": 525,
    "LOG_F": 765, "LOG_Q2": 765, "PSEUDO": 1431, "I3": 1365, "I4": 1908,
    "I5": 1908, "I6": 1365, "I2_BARRED": 585, "I3_BARRED": 585,
    "GR_E_SIN": 585, "GR_F_SIN": 585, "ATAN_F": 855, "ATAN_E": 855,
}
_PAIRS = (("I3", "I6"), ("I4", "I5"), ("I2_BARRED", "I3_BARRED"),
          ("GR_E_SIN", "GR_F_SIN"), ("LOG_F", "LOG_Q2"), ("ATAN_F", "ATAN_E"))


def test_oracle_evaluation_counts_at_grid_5():
    counts = {ident.value: sum(oracle_value(ident, p).evaluations
                               for p in grid_params(ident, 5))
              for ident in IdentityId}
    assert counts == GRID5_ORACLE_EVALS
    assert sum(counts.values()) - sum(counts[b] for _, b in _PAIRS) == 9_594


def test_paired_rows_share_their_part():
    for a, b in _PAIRS:
        ea, eb = REGISTRY[IdentityId(a)], REGISTRY[IdentityId(b)]
        assert ea.oracle == eb.oracle and {ea.component, eb.component} == {0, 1}
    paired = {i for pair in _PAIRS for i in pair}
    assert all(entry.component is None
               for ident, entry in REGISTRY.items() if ident.value not in paired)


def test_identity_records_integrate_each_pair_once(monkeypatch):
    # one oracle and one closed-body call per unpaired row and per pair at each
    # grid point: 275 of each, against 425 with every row evaluated on its own.
    # 19 of the oracles (PSEUDO and I4/I5 nodes) map both ends of (0, pi/2) and
    # integrate each half on its own, so 294 integrate calls, 9,594 evaluations.
    # The angle faces are 25 points of a pair each, one body call and one
    # integral apiece, and check on a paired row makes one of each
    plain = quadrature.integrate
    calls = []
    bodies = []
    oracles = []

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        calls.append(res.evaluations)
        return res

    def counting(log, fn):
        def body(p):
            log.append(fn)
            return fn(p)
        return body

    # quadrature._graded reads integrate from its module at call time
    monkeypatch.setattr(quadrature, "integrate", counted)
    for ident, entry in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, ident, entry._replace(closed=counting(bodies, entry.closed)))
    records = identity_records(5)
    assert len(records) == 425 and all(r.passed for r in records)
    assert (len(calls), sum(calls)) == (294, 9_594)
    assert len(bodies) == 275 and len(set(bodies)) == 11

    calls.clear()
    bodies.clear()
    records = angle_face_records(5)
    assert len(records) == 50 and all(r.passed for r in records)
    assert (len(bodies), len(calls), sum(calls)) == (25, 25, 525)

    bodies.clear()
    name = REGISTRY[IdentityId.LOG_F].oracle
    monkeypatch.setattr(identities._oracles, name,
                        counting(oracles, getattr(identities._oracles, name)))
    assert check(IdentityId.LOG_F, EpsAB(1.0, 0.3, 0.9)).passed
    assert (len(bodies), len(oracles)) == (1, 1)


def test_oracles_share_no_code_with_elliptic(monkeypatch):
    # the Carlson loops and the AGM behind the closed forms, and K and E
    # themselves, raise wherever a module binds them, yet all 17 identity
    # oracles and the area oracle still run
    expected = {ident: oracle_value(ident, grid_params(ident, 2)[1]) for ident in IdentityId}
    area = quadrature.surface_area_quadrature(2.0, 1.5, 1.0)

    def refuse(*args):
        raise AssertionError("the oracle called elliptic")

    for module in (elliptic, identities, geometry, quadrature):
        for name in ("_fed", "_rf_rd", "_agm", "carlson_rf", "complete_e", "complete_k"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        closed_value(IdentityId.I5, MuK(1.0, 0.3))
    with pytest.raises(AssertionError):
        closed_value(IdentityId.PR3_D_BARRED, AlphaKBar(0.3, 0.6))
    for ident, res in expected.items():
        assert oracle_value(ident, grid_params(ident, 2)[1]) == res
    assert quadrature.surface_area_quadrature(2.0, 1.5, 1.0) == area


def test_every_oracle_is_one_graded_call(monkeypatch):
    # the one oracle contract: each registry oracle and the area oracle is one
    # quadrature._graded call, which carries its scale, and integrate runs only
    # inside that call (the PR3_D rows called integrate directly, with their own
    # tau map, and the area oracle scaled its own integrate call)
    points = {ident: grid_params(ident, 3)[4] for ident in IdentityId}
    expected = {ident: oracle_value(ident, p) for ident, p in points.items()}
    area = quadrature.surface_area_quadrature(2.0, 1.5, 1.0)
    graded, integrate = quadrature._graded, quadrature.integrate
    calls = []
    inside = []

    def counted(*args, **kwargs):
        calls.append(args)
        inside.append(True)
        try:
            return graded(*args, **kwargs)
        finally:
            inside.pop()

    def nested(*args, **kwargs):
        assert inside, "integrate called outside _graded"
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_graded", counted)
    monkeypatch.setattr(quadrature, "integrate", nested)
    for ident, p in points.items():
        calls.clear()
        assert oracle_value(ident, p) == expected[ident]
        assert len(calls) == 1, ident
    calls.clear()
    assert quadrature.surface_area_quadrature(2.0, 1.5, 1.0) == area
    assert len(calls) == 1


def test_each_closed_body_makes_one_pass(monkeypatch):
    # every F, E and D at one amplitude comes from elliptic._fed: one _rf_rd pass
    # per body (PSEUDO is elementary), and K and E from one AGM for the four
    # kernel pairs only; PR3_D_BARRED takes its K - D from that one pass
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for module in (elliptic, identities, geometry, quadrature):
        for name in ("_rf_rd", "_agm"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    kernel_pairs = {NuK, MuK, PsiKBar, XiKBar}
    for ident, entry in REGISTRY.items():
        calls.clear()
        entry.closed(grid_params(ident, 3)[4])
        expected = (0 if ident is IdentityId.PSEUDO else 1,
                    1 if entry.params_cls in kernel_pairs else 0)
        assert (calls.count("_rf_rd"), calls.count("_agm")) == expected, ident


def test_sweep_records_read_the_oracle_value():
    # oracle_value and the sweep take one code path: each record's oracle is
    # oracle_value at its point, bit for bit
    for rec in identity_records(3):
        ident = IdentityId(rec.ident)
        params = REGISTRY[ident].params_cls(**rec.params)
        assert rec.oracle == oracle_value(ident, params).value


@pytest.mark.parametrize("ident,params,evals", [
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-9), 21),
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-6), 21),
    (IdentityId.PR3_D, AlphaZ(1e6, 1.0), 21),
    (IdentityId.PR3_D_BARRED, AlphaKBar(1e-6, 0.5), 21),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.999, 0.999999), 81),
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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_check_rejects_a_tol_that_is_not_positive(tol):
    # it returned a failing record, as if the closed form were wrong
    with pytest.raises(DomainError, match="tol must be positive"):
        check(IdentityId.I1, AlphaK(0.5, 0.5), tol)
    with pytest.raises(DomainError, match="tol must be positive"):
        make_record("I1", {}, 1.0, 1.0, tol)


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
