"""Verification sweeps: every closed form against an independent oracle.

Four suites, each producing uniform records (id, params, closed, oracle,
abs_err, rel_err, pass):

  geometry    R_G surface area vs azimuthal quadrature, permutation and
              scaling invariance, the triaxial form at exact
              spheroids, and four independent single-integral routes
              to the same area
  integrals   the full identity registry, closed form vs adaptive
              quadrature of the defining integrand on parameter grids
  series      sigma sums vs their elliptic-integral references, the
              low-order coefficient closed forms, the termwise split
              Omega = Theta + Psi, and the Maclaurin derivatives vs
              the Cauchy product of two binomial series
  extensions  cos^2 <-> sin^2 kernel conversions and the imaginary
              modulus / argument reductions vs direct quadrature

Every record passes iff rel_err <= its tolerance (make_record), with no
absolute bound.  The identity sweep honours the caller's tolerance; the
invariant suites carry intrinsic tolerances listed in the module constants
below, and in _options for the two that the command line reads too
(AREA_ORACLE_TOL, SERIES_SUM_TOL); the report's meta lists each one.  All
sampling is seeded, so repeated runs produce identical reports.
"""

import csv
import io
import json
import math
import random
from itertools import permutations
from typing import NamedTuple

from ._options import AREA_ORACLE_TOL, IDENTITY_TOL, SERIES_SUM_TOL, SUITES
from ._version import __version__
from .elliptic import HALF_PI, imaginary_argument_reduce, imaginary_modulus_reduce
from .errors import DomainError
from .geometry import (barred_params, eccentricities, oblate_area,
                       prolate_area, surface_area, triaxial_area)
from .identities import (ORACLE_TOL, REGISTRY, EpsAB, FBar, PsiKBar, XiKBar, _lin,
                         _member, alpha_k_from_eccentricities, alpha_kbar_from_barred,
                         atan_closed, grid_params, i1_barred_closed, i1_closed,
                         log_closed, make_record, psi_closed, xi_closed)
from .quadrature import integrate, surface_area_quadrature
from .series import (_sigma_sums, f_maclaurin_derivative, omega_coefficients,
                     psi_terms, theta_terms)

# intrinsic tolerances of the invariant suites
AREA_QUAD_TOL = 1e-7        # closed area vs the area oracle
PERMUTATION_TOL = 1e-12
SCALING_TOL = 1e-12
LIMIT_TOL = 1e-13           # triaxial form vs spheroid form at an exact spheroid
ROUTE_TOL = 1e-10
SERIES_COEFF_TOL = 1e-14
SPLIT_TOL = 1e-15           # Omega = Theta + Psi, term by term
MACLAURIN_TOL = 1e-13
KERNEL_TOL = 1e-11
IMAG_TOL = 1e-10
IMAG_ORACLE_TOL = 1e-12     # relative tolerance handed to the 1D oracle

_AXES_SEED = 1009
_ROUTE_SEED = 2003
_KERNEL_SEED = 97
_AXIS_LO, _AXIS_HI = 0.1, 10.0
_MIN_GAP = 1e-2             # relative gap enforced for strict orderings


# ---------------------------------------------------------------------------
# axis sampling


def random_axes(n: int) -> list:
    """n reproducible triples, each coordinate uniform on [0.1, 10]."""
    rng = random.Random(_AXES_SEED)
    return [(rng.uniform(_AXIS_LO, _AXIS_HI), rng.uniform(_AXIS_LO, _AXIS_HI),
             rng.uniform(_AXIS_LO, _AXIS_HI)) for _ in range(n)]


def _strict_sorted(rng: random.Random, descending: bool) -> tuple:
    # resample until adjacent axes differ by at least _MIN_GAP relative,
    # keeping every route parameter safely inside its open domain
    while True:
        t = sorted((rng.uniform(_AXIS_LO, _AXIS_HI) for _ in range(3)),
                   reverse=descending)
        hi0 = max(t[0], t[1])
        hi1 = max(t[1], t[2])
        if (abs(t[0] - t[1]) / hi0 >= _MIN_GAP
                and abs(t[1] - t[2]) / hi1 >= _MIN_GAP):
            return tuple(t)


# ---------------------------------------------------------------------------
# four single-integral routes to the surface area


def area_via_weighted_e_integral(a: float, b: float, c: float) -> float:
    """Descending axes: prefactor times the weighted-E(u) kernel integral."""
    e = eccentricities(a, b, c)
    p = alpha_k_from_eccentricities(e.e1, e.e2)
    kp2 = 1.0 - p.k * p.k
    pref = 8.0 * a * b * kp2 * (kp2 + (p.k * p.alpha) ** 2) / p.alpha
    return pref * i1_closed(p)


def area_via_log_kernel(a: float, b: float, c: float) -> float:
    """Descending axes: 2 pi a b plus the difference of two log-kernel
    integrals taken between the eccentricities with unit log argument."""
    e = eccentricities(a, b, c)
    f, q2 = log_closed(EpsAB(1.0, e.e2, e.e1))
    return 2.0 * math.pi * a * b + 2.0 * a * b * (f - q2)


def area_via_barred_weighted_e(a: float, b: float, c: float) -> float:
    """Ascending axes: prefactor times the barred weighted-E(u) integral."""
    f = barred_params(a, b, c)
    p = alpha_kbar_from_barred(f.f1, f.f2)
    pref = 8.0 * a * b * p.alpha * p.kbar * p.kbar / (f.f1 * f.f1)
    return pref * i1_barred_closed(p)


def area_via_arctan_kernel(a: float, b: float, c: float) -> float:
    """Ascending axes: 2 pi a b plus four a b times the two arctan-kernel
    integrals between the barred parameters."""
    f = barred_params(a, b, c)
    atan_f, atan_e = atan_closed(FBar(f.f1, f.f2))
    return 2.0 * math.pi * a * b + 4.0 * a * b * (atan_f + atan_e)


# ---------------------------------------------------------------------------
# geometry suite


def area_quadrature_records(n: int) -> list:
    out = []
    for a, b, c in random_axes(n):
        closed = surface_area(a, b, c)
        oracle = surface_area_quadrature(a, b, c, AREA_ORACLE_TOL)
        out.append(make_record("AREA_VS_QUADRATURE", {"a": a, "b": b, "c": c},
                               closed, oracle.value, AREA_QUAD_TOL))
    return out


def permutation_records(n: int) -> list:
    out = []
    for axes in random_axes(n):
        ref = surface_area(*sorted(axes, reverse=True))
        for p in permutations(axes):
            out.append(make_record("AREA_PERMUTATION",
                                   {"a": p[0], "b": p[1], "c": p[2]},
                                   surface_area(*p), ref, PERMUTATION_TOL))
    return out


_SCALE_CYCLE = (0.5, 2.0, 10.0, 0.1)


def scaling_records(n: int) -> list:
    out = []
    for i, (a, b, c) in enumerate(random_axes(n)):
        lam = _SCALE_CYCLE[i % len(_SCALE_CYCLE)]
        scaled = surface_area(lam * a, lam * b, lam * c) / (lam * lam)
        out.append(make_record("AREA_SCALING",
                               {"a": a, "b": b, "c": c, "lam": lam},
                               scaled, surface_area(a, b, c), SCALING_TOL))
    return out


_LIMIT_RATIOS = (0.3, 0.6, 0.9)


def spheroid_limit_records() -> list:
    """The triaxial form at exact spheroids, (1, 1, t) and (1, t, t), vs the
    elementary oblate and prolate forms, which share no code with it."""
    return ([make_record("LIMIT_OBLATE", {"a": 1.0, "b": 1.0, "c": t},
                         triaxial_area(1.0, 1.0, t), oblate_area(1.0, t), LIMIT_TOL)
             for t in _LIMIT_RATIOS]
            + [make_record("LIMIT_PROLATE", {"a": 1.0, "b": t, "c": t},
                           triaxial_area(1.0, t, t), prolate_area(1.0, t), LIMIT_TOL)
               for t in _LIMIT_RATIOS])


_ROUTES = (
    ("ROUTE_WEIGHTED_E", area_via_weighted_e_integral, True),
    ("ROUTE_LOG_KERNEL", area_via_log_kernel, True),
    ("ROUTE_BARRED_WEIGHTED_E", area_via_barred_weighted_e, False),
    ("ROUTE_ARCTAN_KERNEL", area_via_arctan_kernel, False),
)


def route_records(n: int) -> list:
    """Each single-integral route vs the R_G area, n triples per route."""
    rng = random.Random(_ROUTE_SEED)
    out = []
    for ident, fn, descending in _ROUTES:
        for _ in range(n):
            a, b, c = _strict_sorted(rng, descending)
            out.append(make_record(ident, {"a": a, "b": b, "c": c},
                                   fn(a, b, c), surface_area(a, b, c), ROUTE_TOL))
    return out


def geometry_records(grid: int) -> list:
    out = area_quadrature_records(grid)
    out += permutation_records(grid)
    out += scaling_records(grid)
    out += spheroid_limit_records()
    out += route_records(grid)
    return out


# ---------------------------------------------------------------------------
# integrals suite


def identity_records(grid: int, tol: float = IDENTITY_TOL) -> list:
    """Closed form vs quadrature for every registry identity.  The two rows
    of a pair read one closed body call and one integral per grid point,
    kept only for the length of this call."""
    out = []
    pending = {}  # (oracle, params) -> (closed, integral) awaiting the pair's other row
    for ident, entry in REGISTRY.items():
        for params in grid_params(ident, grid):
            key = (entry.oracle, params)
            if key in pending:
                closed, res = pending.pop(key)
            else:
                closed, res = entry.closed(params), entry.oracle(params, ORACLE_TOL)
                if entry.component is not None:
                    pending[key] = closed, res
            out.append(make_record(ident.value, params._asdict(), _member(entry, closed),
                                   _member(entry, res.value), tol))
    return out


# ---------------------------------------------------------------------------
# series suite


def _sigma_grid(grid: int) -> list:
    pairs = []
    for i in range(grid):
        e1 = 0.9 * (i + 1) / grid
        for j in range(grid):
            pairs.append((e1, e1 * (j + 0.5) / grid))
    return pairs


def sigma_records(grid: int) -> list:
    out = []
    for e1, e2 in _sigma_grid(grid):
        closed = log_closed(EpsAB(1.0, e2, e1))
        for name, (series_sum, member) in _sigma_sums().items():
            out.append(make_record(name + "_SUM", {"e1": e1, "e2": e2},
                                   series_sum(e1, e2).value, closed[member], SERIES_SUM_TOL))
    return out


def _omega5(e1, e2):
    return (3 * e1 ** 4 + 2 * e1 ** 2 * e2 ** 2 + 3 * e2 ** 4) / 24.0


def _omega7(e1, e2):
    return (5 * e1 ** 6 + 3 * e1 ** 4 * e2 ** 2
            + 3 * e1 ** 2 * e2 ** 4 + 5 * e2 ** 6) / 80.0


def _theta3(e1, e2):
    return (e1 * e1 + e2 * e2) / 2.0


def _theta5(e1, e2):
    return (e1 ** 4 - 2 * e1 ** 2 * e2 ** 2 + e2 ** 4) / 8.0


def _theta7(e1, e2):
    return (e1 ** 6 - e1 ** 4 * e2 ** 2 - e1 ** 2 * e2 ** 4 + e2 ** 6) / 16.0


def _psi5(e1, e2):
    return e1 * e1 * e2 * e2 / 3.0


def _psi7(e1, e2):
    return (e1 ** 4 * e2 ** 2 + e1 ** 2 * e2 ** 4) / 10.0


_COEFF_CHECKS = (
    ("COEFF_OMEGA_5", "omega", 2, _omega5),
    ("COEFF_OMEGA_7", "omega", 3, _omega7),
    ("COEFF_THETA_3", "theta", 1, _theta3),
    ("COEFF_THETA_5", "theta", 2, _theta5),
    ("COEFF_THETA_7", "theta", 3, _theta7),
    ("COEFF_PSI_5", "psi", 2, _psi5),
    ("COEFF_PSI_7", "psi", 3, _psi7),
)


def coefficient_records(grid: int) -> list:
    """Recurrence / Cauchy-product coefficients vs their closed forms, plus
    the termwise identity Omega = Theta + Psi through m = 5."""
    pairs = _sigma_grid(max(2, min(grid, 4)))  # a handful of pairs suffices
    out = []
    for e1, e2 in pairs:
        # terms[m] does not depend on m_max, so one call per family serves all m
        om = omega_coefficients(e1, e2, 5).terms
        th = theta_terms(e1, e2, 5).terms
        ps = psi_terms(e1, e2, 5).terms
        terms = {"omega": om, "theta": th, "psi": ps}
        for ident, kind, m, closed_fn in _COEFF_CHECKS:
            out.append(make_record(ident, {"e1": e1, "e2": e2},
                                   terms[kind][m], closed_fn(e1, e2), SERIES_COEFF_TOL))
        for m in range(1, 6):
            out.append(make_record("OMEGA_SPLIT", {"e1": e1, "e2": e2, "m": m},
                                   om[m], th[m] + ps[m], SPLIT_TOL))
    return out


def _maclaurin_reference(m: int, k: float) -> float:
    """(2m)! times the x^(2m) coefficient of 1/sqrt((1 - x^2)(1 - k^2 x^2)), the
    derivative of F(arcsin x, k): a Cauchy product of two binomial series
    with c_0 = 1 and c_i = c_(i-1) (i - 1/2)/i."""
    c = [1.0]
    for i in range(1, m + 1):
        c.append(c[i - 1] * (i - 0.5) / i)
    return math.factorial(2 * m) * math.fsum(c[i] * c[m - i] * k ** (2 * i)
                                             for i in range(m + 1))


def maclaurin_records() -> list:
    """f_maclaurin_derivative vs the Taylor series of the derivative of
    x -> F(arcsin x, k)."""
    out = []
    for e1, e2 in ((0.6, 0.3), (0.8, 0.5), (0.45, 0.4)):
        for m in (0, 1, 2):
            out.append(make_record("MACLAURIN_DERIVATIVE",
                                   {"m": m, "e1": e1, "e2": e2},
                                   f_maclaurin_derivative(m, e1, e2),
                                   _maclaurin_reference(m, e2 / e1), MACLAURIN_TOL))
    return out


def series_records(grid: int) -> list:
    return sigma_records(grid) + coefficient_records(grid) + maclaurin_records()


# ---------------------------------------------------------------------------
# extensions suite


def kernel_relation_records(n: int) -> list:
    """cos^2-kernel integrals vs their sin^2-kernel counterparts at the
    complementary angle, for both the E and F numerators."""
    rng = random.Random(_KERNEL_SEED)
    out = []
    for _ in range(n):
        xi = rng.uniform(0.05, HALF_PI - 0.05)
        kbar = rng.uniform(0.05, 0.95)
        psi_f, psi_e = psi_closed(PsiKBar(HALF_PI - xi, kbar))
        xi_f, xi_e = xi_closed(XiKBar(xi, kbar))
        pr = {"xi": xi, "kbar": kbar}
        out.append(make_record("KERNEL_COS_TO_SIN_E", pr, psi_e, xi_e, KERNEL_TOL))
        out.append(make_record("KERNEL_COS_TO_SIN_F", pr, psi_f, xi_f, KERNEL_TOL))
    return out


def _imag_reductions() -> tuple:
    """(id prefix, amplitude key, sin or sinh, reduction, amplitude range,
    k range) of each imaginary reduction.  Built per call, so that rebinding
    the reductions (as the perfbench layer trace does) is honoured."""
    return (("IMAG_MODULUS", "phi", math.sin, imaginary_modulus_reduce, (0.1, 1.5), (0.3, 2.5)),
            ("IMAG_ARGUMENT", "phi_hyp", math.sinh, imaginary_argument_reduce,
             (0.2, 2.5), (0.08, 0.92)))


def imaginary_reduction_records(grid: int) -> list:
    """The two imaginary-parameter reductions vs direct real quadrature, F
    and E at each point from one paired integral."""
    out = []
    for ident, key, trig, reduce, phi_range, k_range in _imag_reductions():
        for phi in _lin(grid, *phi_range):
            for k in _lin(grid, *k_range):
                f_red, e_red = reduce(phi, k)
                k2 = k * k

                def fe(t: float) -> tuple:
                    d = math.sqrt(1.0 + k2 * trig(t) ** 2)
                    return 1.0 / d, d

                f_quad, e_quad = integrate(fe, 0.0, phi, IMAG_ORACLE_TOL).value
                pr = {key: phi, "k": k}
                out.append(make_record(ident + "_F", pr, f_red, f_quad, IMAG_TOL))
                out.append(make_record(ident + "_E", pr, e_red, e_quad, IMAG_TOL))
    return out


def extension_records(grid: int) -> list:
    return kernel_relation_records(grid * grid) + imaginary_reduction_records(grid)


# ---------------------------------------------------------------------------
# report assembly and serialization


class Report(NamedTuple):
    version: str
    tolerances: dict
    grid: int | None  # None for a single CLI record
    records: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]


def _tolerance_meta(tol: float) -> dict:
    return {
        "identity_rel": tol,
        "area_vs_quadrature_rel": AREA_QUAD_TOL,
        "permutation_rel": PERMUTATION_TOL,
        "scaling_rel": SCALING_TOL,
        "spheroid_limit_rel": LIMIT_TOL,
        "route_rel": ROUTE_TOL,
        "series_sum_rel": SERIES_SUM_TOL,
        "series_coeff_rel": SERIES_COEFF_TOL,
        "series_split_rel": SPLIT_TOL,
        "maclaurin_rel": MACLAURIN_TOL,
        "kernel_relation_rel": KERNEL_TOL,
        "imag_reduction_rel": IMAG_TOL,
    }


def run_suite(suite: str = "all", grid: int = 5, tol: float = IDENTITY_TOL) -> Report:
    """Execute one named suite (or all of them) and collect a Report."""
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from "
                          f"{('all',) + SUITES}")
    if not isinstance(grid, int) or grid < 1:
        raise DomainError(f"grid must be a positive integer, got {grid!r}")
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    records = []
    if suite in ("all", "geometry"):
        records += geometry_records(grid)
    if suite in ("all", "integrals"):
        records += identity_records(grid, tol)
    if suite in ("all", "series"):
        records += series_records(grid)
    if suite in ("all", "extensions"):
        records += extension_records(grid)
    return Report(__version__, _tolerance_meta(tol), grid, tuple(records))


# json.dumps(indent=2) runs the pure-Python encoder.  Records and their params
# are flat objects, so the C encoder lays them out the same way when the item
# separator carries the newline and the indent of their depth.  One call
# encodes a list of such objects; an encoded string never holds a raw newline,
# so "}" + separator + "{" occurs only between two objects and splits them.
_RECORD_SEP = ",\n      "
_PARAMS_SEP = ",\n        "
_encode_record = json.JSONEncoder(separators=(_RECORD_SEP, ": ")).encode
_encode_params = json.JSONEncoder(separators=(_PARAMS_SEP, ": ")).encode


def _members(encode, sep: str, objs: list) -> list:
    """The text between the braces of each flat object in objs (not empty)."""
    return encode(objs)[2:-2].split("}" + sep + "{")


def report_json(report: Report) -> str:
    """The report as json.dumps(payload, indent=2) + "\\n" writes it, with
    payload {"meta": {version, tolerances, grid}, "records": [{id, params,
    closed, oracle, abs_err, rel_err, pass}, ...]}, byte for byte."""
    meta = {"meta": {"version": report.version, "tolerances": report.tolerances,
                     "grid": report.grid}}
    head = json.dumps(meta, indent=2)[:-2] + ',\n  "records": '
    if not report.records:
        return head + "[]\n}\n"
    rows = _members(_encode_record, _RECORD_SEP, [
        {"id": r.ident, "closed": r.closed, "oracle": r.oracle,
         "abs_err": r.abs_err, "rel_err": r.rel_err, "pass": r.passed}
        for r in report.records])
    params = _members(_encode_params, _PARAMS_SEP, [r.params for r in report.records])
    out = []
    for row, p in zip(rows, params):
        ident, rest = row.split(_RECORD_SEP, 1)
        p = "{\n        " + p + "\n      }" if p else "{}"
        out.append("    {\n      " + ident + _RECORD_SEP + '"params": ' + p
                   + _RECORD_SEP + rest + "\n    }")
    return head + "[\n" + ",\n".join(out) + "\n  ]\n}\n"


def report_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)  # default \r\n line endings per RFC 4180
    w.writerow(["id", "params", "closed", "oracle", "abs_err", "rel_err", "pass"])
    for r in report.records:
        w.writerow([r.ident, json.dumps(r.params, sort_keys=True),
                    repr(r.closed), repr(r.oracle), repr(r.abs_err),
                    repr(r.rel_err), "true" if r.passed else "false"])
    return buf.getvalue()


def write_report(report: Report, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = report_json(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise DomainError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
