"""Acceptance gate: ten end-to-end criteria over the public surface.

Each test prints a single machine-parsable pass/fail line (outside the
capture machinery, so it also lands in piped logs) and then asserts.
Tolerances and counts are the package's external contract; they must not
be loosened here.
"""

import math
import random
import time
from itertools import permutations

from ellint import (
    IdentityId,
    closed_value,
    complete_e,
    complete_k,
    incomplete_e,
    incomplete_f,
    integrate,
    oracle_value,
    surface_area,
    triaxial_area,
)
from ellint.identities import PsiKBar, XiKBar, check, grid_params, make_record
from ellint.verify import (
    area_quadrature_records,
    coefficient_records,
    maclaurin_records,
    random_axes,
    route_records,
    sigma_records,
    spheroid_limit_records,
)

HALF_PI = math.pi / 2.0

SUMMARY_IDENTITIES = (
    IdentityId.I1, IdentityId.I1_BARRED, IdentityId.I3, IdentityId.I2_BARRED,
    IdentityId.I4, IdentityId.I5, IdentityId.I6, IdentityId.I3_BARRED,
    IdentityId.LOG_Q2,
)


def _emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _failures(records):
    return [r for r in records if not r.passed]


def test_criterion_01_area_vs_quadrature(capsys):
    t0 = time.perf_counter()
    records = area_quadrature_records(100)
    elapsed = time.perf_counter() - t0
    bad = _failures(records)
    ok = not bad and len(records) == 100 and elapsed < 120.0
    _emit(capsys, 1, ok,
          f"closed area vs azimuthal quadrature on 100 random triples in "
          f"[0.1, 10]^3, rel tol 1e-7 ({len(records) - len(bad)}/100, "
          f"{elapsed:.1f} s, limit 120 s)")
    assert ok, (bad[:3], elapsed)


def test_criterion_02_permutation_invariance(capsys):
    # surface_area sorts its axes first, so the six orderings agree bit for bit
    triples = random_axes(100)
    bad = [axes for axes in triples if len({surface_area(*p) for p in permutations(axes)}) != 1]
    ok = not bad and len(triples) == 100
    _emit(capsys, 2, ok,
          f"all six axis orderings give bitwise identical areas on the same 100 "
          f"triples ({len(triples) - len(bad)}/{len(triples)})")
    assert ok, bad[:3]


def test_criterion_03_first_kind_form_agreement(capsys):
    count = good = 0
    worst = 0.0
    for i in range(10):
        a = 2.0 + i / 10.0
        for j in range(10):
            b = 1.2 + j / 15.0
            for k in range(10):
                c = 0.3 + k / 16.0
                count += 1
                area = surface_area(a, b, c)
                rel = abs(triaxial_area(a, b, c) - area) / area
                worst = max(worst, rel)
                good += rel <= 1e-12
    ok = good == count == 1000
    _emit(capsys, 3, ok,
          f"Legendre's area form (triaxial_area) vs the R_G area to 1e-12 on a strict "
          f"10x10x10 grid ({good}/{count}, worst rel {worst:.2e})")
    assert ok, worst


def test_criterion_04_spheroid_limits(capsys):
    records = spheroid_limit_records()
    bad = _failures(records)
    ok = not bad and len(records) == 6
    _emit(capsys, 4, ok,
          f"triaxial form at exact spheroids within 1e-13 of both spheroid "
          f"closed forms ({len(records) - len(bad)}/{len(records)})")
    assert ok, bad


def test_criterion_05_summary_identities(capsys):
    t0 = time.perf_counter()
    records = [check(ident, params) for ident in SUMMARY_IDENTITIES
               for params in grid_params(ident, 10)]
    elapsed = time.perf_counter() - t0
    bad = _failures(records)
    ok = not bad and len(records) == 900 and elapsed < 60.0
    _emit(capsys, 5, ok,
          f"nine summary identities vs quadrature on 10x10 grids, rel tol "
          f"1e-8 ({len(records) - len(bad)}/{len(records)}, {elapsed:.1f} s, "
          f"limit 60 s)")
    assert ok, (bad[:3], elapsed)


def _kernel_relation_records(n):
    # each xi closed row against the psi oracle at the complementary angle
    # pi/2 - xi, at n seeded points: closed body and oracle share no code
    rng = random.Random(97)
    out = []
    for _ in range(n):
        xi = rng.uniform(0.05, HALF_PI - 0.05)
        kbar = rng.uniform(0.05, 0.95)
        psi = PsiKBar(HALF_PI - xi, kbar)
        for sin_row, cos_row in ((IdentityId.GR_E_SIN, IdentityId.I2_BARRED),
                                 (IdentityId.GR_F_SIN, IdentityId.I3_BARRED)):
            out.append(make_record(sin_row.value, {"xi": xi, "kbar": kbar},
                                   closed_value(sin_row, XiKBar(xi, kbar)),
                                   oracle_value(cos_row, psi).value, 1e-11))
    return out


def test_criterion_06_kernel_relations(capsys):
    records = _kernel_relation_records(50)
    bad = _failures(records)
    ok = not bad and len(records) == 100
    _emit(capsys, 6, ok,
          f"cos^2/sin^2 kernel relations to 1e-11 at 50 random points "
          f"({len(records) - len(bad)}/{len(records)})")
    assert ok, bad[:3]


def test_criterion_07_single_integral_routes(capsys):
    records = route_records(20)
    bad = _failures(records)
    ok = not bad and len(records) == 80
    _emit(capsys, 7, ok,
          f"four single-integral area routes vs dispatch to 1e-10, 20 "
          f"triples each ({len(records) - len(bad)}/{len(records)})")
    assert ok, bad[:3]


def test_criterion_08_series(capsys):
    sums = sigma_records(10)
    coeffs = coefficient_records(10)
    bad = _failures(sums) + _failures(coeffs)
    counts = (len(sums), len(coeffs))
    ok = not bad and len(sums) == 200 and len(coeffs) >= 10
    _emit(capsys, 8, ok,
          f"sigma sums to 1e-12 on a 10x10 grid and the A and Omega "
          f"recurrences vs binomial products to 1e-14 ({counts[0]} sum records, "
          f"{counts[1]} coefficient records, {len(bad)} failures)")
    assert ok, bad[:3]


def test_criterion_09_elliptic_core(capsys):
    spot = (abs(complete_k(0.0) - HALF_PI) <= 1e-15
            and abs(complete_e(0.0) - HALF_PI) <= 1e-15
            and abs(complete_e(1.0) - 1.0) <= 1e-15)
    legendre_ok = True
    for j in range(1, 21):
        k = j / 21.0
        kp = math.sqrt(1.0 - k * k)
        lhs = (complete_e(k) * complete_k(kp) + complete_e(kp) * complete_k(k)
               - complete_k(k) * complete_k(kp))
        legendre_ok &= abs(lhs - HALF_PI) <= 1e-12 * HALF_PI
    grid_ok = True
    worst = 0.0
    for i in range(20):
        phi = (i + 1) * HALF_PI / 21.0
        for j in range(20):
            k = (j + 1) / 21.0
            m = k * k

            def df(t):
                return 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2)

            def de(t):
                return math.sqrt(1.0 - m * math.sin(t) ** 2)

            for fn, ref_fn in ((incomplete_f, df), (incomplete_e, de)):
                ref = integrate(ref_fn, 0.0, phi, 1e-13).value
                rel = abs(fn(phi, k) - ref) / abs(ref)
                worst = max(worst, rel)
                grid_ok &= rel <= 1e-12
    ok = spot and legendre_ok and grid_ok
    _emit(capsys, 9, ok,
          f"kernel spot values to 1e-15, Legendre relation to 1e-12 at 20 "
          f"moduli, F/E vs quadrature to 1e-12 on a 20x20 grid (worst rel "
          f"{worst:.2e})")
    assert ok, (spot, legendre_ok, worst)


def test_criterion_10_maclaurin_derivatives(capsys):
    records = maclaurin_records()
    bad = _failures(records)
    ok = not bad and len(records) == 9
    _emit(capsys, 10, ok,
          f"Maclaurin derivatives m <= 2 within 1e-13 of the binomial Cauchy "
          f"product ({len(records) - len(bad)}/{len(records)})")
    assert ok, bad
