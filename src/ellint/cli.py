"""Command-line front end.

Subcommands: area (surface area of an ellipsoid), integral (evaluate any
catalog identity by id, closed form and/or quadrature oracle), series (the
sigma sums with their closed references), verify (run the verification
suites and write machine-readable reports).

Exit codes: 0 success / comparison passed, 1 a verification comparison
failed, 2 usage or domain error, 3 quadrature or series non-convergence.
"""

import argparse
import sys

# geometry, identities, quadrature, series and verify are the package's lazy
# modules: each body runs on its first attribute read, so a command compiles
# only what it uses.  Calls read each function from its module when they run,
# which also honours a rebinding there (as the perfbench layer trace does).
from . import geometry, identities, quadrature, series, verify
from ._options import (AREA_ORACLE_TOL, IDENTITY_TOL, MAX_TERMS_DEFAULT, PARAM_FLAGS,
                       SERIES_SUM_TOL, SERIES_TERM_TOL, SUITES, IdentityId)
from ._version import __version__
from .errors import DomainError, NonConvergenceError


def _fmt(x: float) -> str:
    return "%.15g" % x


def _axes(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated axes, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric axis in {text!r}")


def _print_report(tolerances: dict, record) -> None:
    print(verify.report_json(verify.Report(__version__, tolerances, None, (record,))), end="")


def _print_comparison(record, rows: list) -> None:
    """Print rows, then the record's abs_err, rel_err and pass, one per line."""
    for key, value in rows + [("abs_err", _fmt(record.abs_err)),
                              ("rel_err", _fmt(record.rel_err)),
                              ("pass", "true" if record.passed else "false")]:
        print("%-11s %s" % (key, value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellint",
        description="ellipsoid surface areas and verified elliptic-integral "
                    "identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("area", help="surface area of an ellipsoid")
    p.add_argument("--axes", type=_axes, required=True, metavar="A,B,C",
                   help="semi-axes, comma separated")
    p.add_argument("--method", default="auto",
                   choices=("auto", "legendre", "ascending", "quadrature"))
    p.add_argument("--tol", type=float, default=AREA_ORACLE_TOL,
                   help="relative tolerance for --method quadrature")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("integral", help="evaluate a catalog identity by id")
    p.add_argument("--id", required=True, dest="ident",
                   choices=[i.value for i in IdentityId])
    for flag in PARAM_FLAGS:
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--mode", default="both",
                   choices=("closed", "oracle", "both"))
    p.add_argument("--tol", type=float, default=IDENTITY_TOL,
                   help="relative comparison tolerance in both mode")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("series", help="evaluate a sigma series sum")
    p.add_argument("--id", required=True, dest="ident",
                   choices=("SIGMA1", "SIGMA2"))
    p.add_argument("--e1", type=float, required=True)
    p.add_argument("--e2", type=float, required=True)
    p.add_argument("--tol", type=float, default=SERIES_TERM_TOL,
                   help="relative term-size termination threshold")
    p.add_argument("--max-terms", type=int, default=MAX_TERMS_DEFAULT,
                   help="term budget; the default converges up to e1 of "
                        "about 0.9998, and above it the sum exits 3")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--tol", type=float, default=IDENTITY_TOL,
                   help="relative tolerance for the identity sweep")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--json", action="store_true",
                   help="print the full report instead of a summary")
    return parser


def _run_area(args) -> int:
    a, b, c = args.axes
    ident = "AREA"
    if args.method == "auto":
        value = closed = geometry.surface_area(a, b, c)
    elif args.method == "quadrature":
        value = quadrature.surface_area_quadrature(a, b, c, args.tol).value
        ident, closed = "AREA_VS_QUADRATURE", geometry.surface_area(a, b, c)
    else:
        # Legendre's form is triaxial_area on strictly descending axes, and
        # the paper's ascending form is it with a and c interchanged
        geometry._check_axes(a, b, c)
        axes = (a, b, c) if args.method == "legendre" else (c, b, a)
        if not axes[0] > axes[1] > axes[2]:
            order = "descending a > b > c" if args.method == "legendre" else "ascending a < b < c"
            raise DomainError(f"area --method {args.method} needs strictly {order}")
        value = closed = geometry.triaxial_area(*axes)
    if args.json:
        params = {"a": a, "b": b, "c": c, "method": args.method}
        tol = verify.AREA_QUAD_TOL
        _print_report({"area_vs_quadrature_rel": tol},
                      identities.make_record(ident, params, closed, value, tol))
    else:
        print(_fmt(value))
    return 0


def _build_params(ident: IdentityId, args):
    params_cls = identities.REGISTRY[ident].params_cls
    given = {f for f in PARAM_FLAGS if getattr(args, f) is not None}
    needed = set(params_cls._fields)
    if given != needed:
        missing = sorted(needed - given)
        extra = sorted(given - needed)
        bits = []
        if missing:
            bits.append("missing " + " ".join(f"--{f}" for f in missing))
        if extra:
            bits.append("unexpected " + " ".join(f"--{f}" for f in extra))
        raise DomainError(f"{ident.value} takes exactly "
                          + " ".join(f"--{f}" for f in params_cls._fields)
                          + " (" + "; ".join(bits) + ")")
    return params_cls(**{f: getattr(args, f) for f in params_cls._fields})


def _run_integral(args) -> int:
    ident = IdentityId(args.ident)
    params = _build_params(ident, args)
    rec = None
    if args.mode == "closed":
        value = identities.closed_value(ident, params)
    elif args.mode == "oracle":
        value = identities.oracle_value(ident, params).value
    else:
        rec = identities.check(ident, params, args.tol)
    if args.json:
        if rec is None:
            rec = identities.make_record(ident.value, params._asdict(), value, value, args.tol)
        _print_report({"identity_rel": args.tol}, rec)
    elif rec is None:
        print(_fmt(value))
    else:
        _print_comparison(rec, [("closed", _fmt(rec.closed)),
                                ("oracle", _fmt(rec.oracle))])
    return 1 if rec is not None and not rec.passed else 0


def _run_series(args) -> int:
    series_sum, member = series._sigma_sums()[args.ident]
    res = series_sum(args.e1, args.e2, args.tol, args.max_terms)
    ref = identities.log_closed(identities.EpsAB(1.0, args.e2, args.e1))[member]
    rec = identities.make_record(args.ident, {"e1": args.e1, "e2": args.e2},
                                 res.value, ref, SERIES_SUM_TOL)
    if args.json:
        _print_report({"series_sum_rel": SERIES_SUM_TOL}, rec)
    else:
        _print_comparison(rec, [("sum", _fmt(res.value)),
                                ("terms_used", res.terms_used),
                                ("reference", _fmt(ref))])
    return 0 if rec.passed else 1


def _run_verify(args) -> int:
    if args.grid < 2:
        raise DomainError(f"--grid must be at least 2, got {args.grid}")
    import json
    report = verify.run_suite(args.suite, args.grid, args.tol)
    if args.out:
        verify.write_report(report, args.out, args.format)
    if args.json:
        print(verify.report_json(report), end="")
    else:
        npass = sum(1 for r in report.records if r.passed)
        nfail = len(report.records) - npass
        print(f"suite {args.suite}: {len(report.records)} records, "
              f"{npass} passed, {nfail} failed")
        for r in report.failures():
            print("FAIL", r.ident, json.dumps(r.params, sort_keys=True),
                  "closed=" + _fmt(r.closed), "oracle=" + _fmt(r.oracle),
                  "rel_err=" + _fmt(r.rel_err))
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "area":
            return _run_area(args)
        if args.command == "integral":
            return _run_integral(args)
        if args.command == "series":
            return _run_series(args)
        return _run_verify(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
