"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success or passed comparison, 1 failed comparison,
2 usage or domain error, 3 non-convergence.  JSON and CSV report formats
are pinned here byte for byte where the contract demands determinism.
"""

import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ellint
from ellint import (IdentityId, __version__, _options, closed_value, identities, quadrature,
                    surface_area, verify)
from ellint.cli import main
from ellint.identities import REGISTRY, EpsAB, MuK, NuK, check, make_record
from ellint.series import sigma1_sum
from ellint._options import TOLERANCES
from ellint.verify import Report, imaginary_reduction_records, report_json, run_suite


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _lines_to_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, value = line.split(None, 1)
        pairs[key] = value
    return pairs


def test_area_sphere_value(capsys):
    rc, out, err = run_cli(["area", "--axes", "1,1,1"], capsys)
    assert rc == 0
    assert out.strip() == "12.5663706143592"
    assert err == ""


def test_area_methods_agree(capsys):
    rc, auto, _ = run_cli(["area", "--axes", "2,1.5,1"], capsys)
    assert rc == 0
    rc, legendre, _ = run_cli(
        ["area", "--axes", "2,1.5,1", "--method", "legendre"], capsys)
    assert rc == 0
    rc, ascending, _ = run_cli(
        ["area", "--axes", "1,1.5,2", "--method", "ascending"], capsys)
    assert rc == 0
    assert float(legendre) == pytest.approx(float(auto), rel=1e-12)
    assert float(ascending) == pytest.approx(float(auto), rel=1e-12)


def test_area_quadrature_method(capsys):
    rc, out, _ = run_cli(
        ["area", "--axes", "2,1.5,1", "--method", "quadrature"], capsys)
    assert rc == 0
    assert float(out) == pytest.approx(27.886442473502580631, rel=1e-6)


def test_area_json_schema(capsys):
    rc, out, _ = run_cli(["area", "--axes", "2,1.5,1", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "records"}
    assert set(payload["meta"]) == {"version", "tolerances", "grid"}
    assert payload["meta"]["version"] == __version__
    assert payload["meta"]["grid"] is None
    (record,) = payload["records"]
    assert set(record) == {"id", "params", "closed", "oracle",
                           "abs_err", "rel_err", "pass"}
    assert record["pass"] is True
    assert record["closed"] == pytest.approx(27.886442473502580631, rel=1e-12)


def test_area_usage_errors_exit_two():
    for argv in [["area", "--axes", "1,2"],
                 ["area", "--axes", "a,b,c"],
                 ["integral", "--id", "NOPE"],
                 ["area"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_area_domain_error(capsys):
    # every method refuses a bad axis at the one axis gate, with its one message
    for method in ("auto", "legendre", "ascending", "quadrature"):
        rc, out, err = run_cli(["area", "--axes", "0,1,1", "--method", method], capsys)
        assert (rc, out) == (2, "")
        assert err == "error: semi-axis 0.0 must be positive and finite\n"


def test_area_paper_methods_need_strict_order(capsys):
    for axes, method, order in [("2,2,1", "legendre", "descending a > b > c"),
                                ("3,2,1", "ascending", "ascending a < b < c")]:
        rc, out, err = run_cli(["area", "--axes", axes, "--method", method], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: area --method {method} needs strictly {order}\n"


def test_integral_closed_mode(capsys):
    rc, out, _ = run_cli(["integral", "--id", "I5", "--mu", "1.0",
                          "--k", "0.3", "--mode", "closed"], capsys)
    assert rc == 0
    expected = "%.15g" % closed_value(IdentityId.I5, MuK(1.0, 0.3))
    assert out.strip() == expected
    assert float(out) == pytest.approx(0.461914815117305642, rel=1e-13)


def test_integral_oracle_mode(capsys):
    rc, out, _ = run_cli(["integral", "--id", "LOG_F", "--eps", "1.5",
                          "--alpha", "0.3", "--beta", "0.9",
                          "--mode", "oracle"], capsys)
    assert rc == 0
    assert float(out) == pytest.approx(2.2623961177420099287, rel=1e-9)


def test_integral_both_mode_passes(capsys):
    rc, out, _ = run_cli(["integral", "--id", "PSEUDO",
                          "--e1", "0.8", "--e2", "0.4"], capsys)
    assert rc == 0
    fields = _lines_to_dict(out)
    assert set(fields) == {"closed", "oracle", "abs_err", "rel_err", "pass"}
    assert fields["pass"] == "true"
    assert float(fields["closed"]) == pytest.approx(0.20434633395298520405,
                                                    rel=1e-13)


def test_integral_both_mode_on_a_thin_interval(capsys):
    # PSEUDO's oracle rebuilt e1^2 - q^2 and q^2 - e2^2 from the rounded q: 4.6e-8 off, exit 1
    rc, out, err = run_cli(["integral", "--id", "PSEUDO", "--e1", "0.5",
                            "--e2", "0.4999999995", "--mode", "both"], capsys)
    assert (rc, err) == (0, "")
    assert _lines_to_dict(out)["pass"] == "true"


def test_integral_both_mode_below_the_subnormals(capsys):
    # the I5 oracle formed k'^2 sinh(mu)^2 and raised OverflowError from mu = 355
    rc, out, err = run_cli(["integral", "--id", "I5", "--mu", "400", "--k", "0.5",
                            "--mode", "both"], capsys)
    assert (rc, err) == (0, "")
    fields = _lines_to_dict(out)
    assert (fields["closed"], fields["oracle"], fields["pass"]) == ("0", "0", "true")


def test_integral_i4_where_sinh_overflows(capsys):
    # the I4 closed form formed sinh mu and cosh mu: a bare OverflowError from mu = 710.48
    rc, out, err = run_cli(["integral", "--id", "I4", "--mu", "711", "--k", "0.5",
                            "--mode", "both"], capsys)
    assert (rc, err) == (0, "")
    fields = _lines_to_dict(out)
    assert (fields["closed"], fields["oracle"], fields["pass"]) == ("0", "0", "true")


def test_integral_both_mode_tight_tolerance_fails(capsys):
    # rel_err 1.5e-15 here; I3 at (0.5, 0.8) agrees bit for bit, so no tol fails it
    rc, out, _ = run_cli(["integral", "--id", "I3", "--nu", "0.3",
                          "--k", "0.8", "--tol", "1e-30"], capsys)
    assert rc == 1
    assert _lines_to_dict(out)["pass"] == "false"


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
@pytest.mark.parametrize("mode", ["both", "closed --json", "oracle --json", "both --json"])
def test_integral_rejects_a_tol_that_is_not_positive(mode, tol, capsys):
    # it was a failed comparison: pass false and exit 1
    argv = ["integral", "--id", "I1", "--alpha", "0.5", "--k", "0.5", "--tol", tol]
    rc, out, err = run_cli(argv + ["--mode"] + mode.split(), capsys)
    assert (rc, out, err) == (2, "", "error: tol must be positive\n")


@pytest.mark.parametrize("mode", ["closed", "oracle"])
def test_integral_single_mode_ignores_tol_without_json(mode, capsys):
    rc, out, _ = run_cli(["integral", "--id", "I1", "--alpha", "0.5", "--k", "0.5",
                          "--mode", mode, "--tol", "nan"], capsys)
    assert rc == 0 and float(out) > 0.0


def test_integral_flag_set_must_match(capsys):
    rc, _, err = run_cli(["integral", "--id", "I3", "--nu", "0.3"], capsys)
    assert rc == 2
    assert "--k" in err
    rc, _, err = run_cli(["integral", "--id", "I3", "--nu", "0.3",
                          "--k", "0.8", "--mu", "1.0"], capsys)
    assert rc == 2
    assert "--mu" in err


def test_integral_domain_error(capsys):
    rc, _, err = run_cli(["integral", "--id", "I3", "--nu", "0.9",
                          "--k", "0.5"], capsys)
    assert rc == 2
    assert err.startswith("error:") and "tanh" in err


def test_integral_domain_error_where_only_the_rounded_tanh_is_inside(capsys):
    # math.tanh(nu) < k, but the exact tanh(nu) is above k: NuK refuses the point
    rc, out, err = run_cli(["integral", "--id", "I3", "--nu", "0.49041614975903763",
                            "--k", "0.454546663076062"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: need 0 < tanh(nu) < k < 1, "
                   "got NuK(nu=0.49041614975903763, k=0.454546663076062)\n")


def test_integral_json(capsys):
    rc, out, _ = run_cli(["integral", "--id", "I1", "--alpha", "0.5",
                          "--k", "0.6", "--json"], capsys)
    assert rc == 0
    (record,) = json.loads(out)["records"]
    assert record["id"] == "I1"
    assert record["params"] == {"alpha": 0.5, "k": 0.6}
    assert record["pass"] is True
    assert record["closed"] == pytest.approx(1.5428567047361814051, rel=1e-13)


@pytest.mark.parametrize("mode", ["closed", "oracle"])
def test_integral_single_mode_json(mode, capsys):
    # one side only: the record compares the value with itself
    argv = ["integral", "--id", "I3", "--nu", "0.3", "--k", "0.8", "--mode", mode]
    rc, plain, _ = run_cli(argv, capsys)
    assert rc == 0
    rc, out, _ = run_cli(argv + ["--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    (record,) = report["records"]
    assert record["closed"] == record["oracle"]
    assert "%.15g" % record["closed"] == plain.strip()
    assert record["abs_err"] == 0.0 and record["pass"] is True
    assert set(report["meta"]["tolerances"]) == {"identity_rel"}


def _single_record_json(tolerances, record):
    return report_json(Report(__version__, tolerances, None, (record,)))


def test_single_record_json_is_report_json(capsys):
    area = surface_area(2.0, 1.5, 1.0)
    area_tol, sum_tol = TOLERANCES["area_vs_quadrature_rel"], TOLERANCES["series_sum_rel"]
    assert (area_tol, sum_tol) == (1e-7, 1e-12)
    cases = [
        (["area", "--axes", "2,1.5,1", "--json"],
         {"area_vs_quadrature_rel": area_tol},
         make_record("AREA", {"a": 2.0, "b": 1.5, "c": 1.0, "method": "auto"},
                     area, area, area_tol)),
        (["integral", "--id", "I3", "--nu", "0.3", "--k", "0.8", "--json"],
         {"identity_rel": 1e-8},
         check(IdentityId.I3, NuK(0.3, 0.8), 1e-8)),
        (["series", "--id", "SIGMA1", "--e1", "0.6", "--e2", "0.3", "--json"],
         {"series_sum_rel": sum_tol},
         make_record("SIGMA1", {"e1": 0.6, "e2": 0.3}, sigma1_sum(0.6, 0.3).value,
                     closed_value(IdentityId.LOG_F, EpsAB(1.0, 0.3, 0.6)), sum_tol)),
    ]
    for argv, tolerances, record in cases:
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert out == _single_record_json(tolerances, record)
        assert json.loads(out)["meta"]["grid"] is None


def test_series_sigma1(capsys):
    rc, out, _ = run_cli(["series", "--id", "SIGMA1",
                          "--e1", "0.6", "--e2", "0.3"], capsys)
    assert rc == 0
    fields = _lines_to_dict(out)
    assert float(fields["sum"]) == pytest.approx(3.4252211653964145715, rel=1e-12)
    assert int(fields["terms_used"]) > 5
    assert fields["pass"] == "true"


def test_series_sigma2_near_zero(capsys):
    rc, out, _ = run_cli(["series", "--id", "SIGMA2",
                          "--e1", "0.01", "--e2", "0.005"], capsys)
    assert rc == 0
    assert _lines_to_dict(out)["pass"] == "true"


def test_series_domain_error(capsys):
    # the series gate is the E1E2 class's own check
    rc, _, err = run_cli(["series", "--id", "SIGMA1",
                          "--e1", "0.3", "--e2", "0.6"], capsys)
    assert rc == 2
    assert err == "error: need 0 < e2 < e1 < 1, got E1E2(e1=0.3, e2=0.6)\n"


def test_series_non_convergence(capsys):
    rc, _, err = run_cli(["series", "--id", "SIGMA1", "--e1", "0.99",
                          "--e2", "0.5", "--max-terms", "50"], capsys)
    assert rc == 3
    assert err.startswith("error:")


def test_verify_summary(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "geometry", "--grid", "2"],
                         capsys)
    assert rc == 0
    assert out.startswith("suite geometry:")
    assert "0 failed" in out


def test_verify_prints_each_failure(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "integrals", "--grid", "2",
                          "--tol", "1e-17"], capsys)
    assert rc == 1
    summary, *lines = out.splitlines()
    failures = run_suite("integrals", 2, 1e-17).failures()
    assert summary.endswith(f" {len(failures)} failed") and len(failures) > 0
    assert lines == [" ".join(["FAIL", r.ident, json.dumps(r.params, sort_keys=True),
                               "closed=%.15g" % r.closed, "oracle=%.15g" % r.oracle,
                               "rel_err=%.15g" % r.rel_err]) for r in failures]


def test_verify_grid_validation(capsys):
    # run_suite's grid check is the only one: any positive grid runs
    rc, _, err = run_cli(["verify", "--grid", "0"], capsys)
    assert rc == 2
    assert err == "error: grid must be an integer of at least 1, got 0\n"
    rc, out, _ = run_cli(["verify", "--grid", "1"], capsys)
    assert rc == 0
    assert out.startswith("suite all: 100 records, 100 passed, 0 failed")


def test_verify_json_is_deterministic(capsys):
    argv = ["verify", "--suite", "extensions", "--grid", "2", "--json"]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["meta"]["grid"] == 2
    assert payload["meta"]["version"] == __version__
    assert "timestamp" not in payload["meta"]
    assert all(r["pass"] for r in payload["records"])


# Records per id of run_suite("all", 5); perfbench/run.py assumes the total,
# so a change to the record set fails here before it fails the benchmark.
_GRID5_RECORDS = {
    "AREA_VS_QUADRATURE": 40, "LIMIT_OBLATE": 3, "LIMIT_PROLATE": 3,
    **dict.fromkeys(["ROUTE_WEIGHTED_E", "ROUTE_LOG_KERNEL", "ROUTE_BARRED_WEIGHTED_E",
                     "ROUTE_ARCTAN_KERNEL"], 5),
    **dict.fromkeys(["I1", "I1_BARRED", "PR3_D", "PR3_D_BARRED", "LOG_F", "LOG_Q2",
                     "PSEUDO", "I3", "I4", "I5", "I6"], 25),
    # 25 grid points each, and the angle-face records: 13 psi points, 12 xi
    **dict.fromkeys(["I2_BARRED", "I3_BARRED"], 25 + 13),
    **dict.fromkeys(["GR_E_SIN", "GR_F_SIN"], 25 + 12),
    **dict.fromkeys(["ATAN_F", "ATAN_E", "SIGMA1_SUM", "SIGMA2_SUM"], 25),
    "COEFF_A": 96, "COEFF_OMEGA": 96, "MACLAURIN_DERIVATIVE": 9,
    **dict.fromkeys(["IMAG_MODULUS_F", "IMAG_MODULUS_E", "IMAG_ARGUMENT_F",
                     "IMAG_ARGUMENT_E"], 25),
}


def test_grid5_record_count_per_id():
    records = run_suite("all", 5).records
    counts = Counter(r.ident for r in records)
    assert list(counts.items()) == list(_GRID5_RECORDS.items())
    assert len(records) == sum(_GRID5_RECORDS.values()) == 892
    assert all(r.passed for r in records)



# sha256 of report_json(run_suite("all", g)), computed with CPython 3.11 on
# x86-64 Linux (glibc libm): the verify report is a byte-for-byte contract,
# so any change to a record, a tolerance or the layout fails here.  A libm
# that rounds sin, exp or log differently can move an oracle's last bit
REPORT_DIGESTS = {
    4: "26a95e223ec4ffef15b44e5e6e3a8dbdc3e75ad6ec8544894b387e6dc334939d",
    5: "6635f301f617151fab7e68e77318421f3bdab1790963b2c456354d45e736f067",
}


@pytest.mark.parametrize("grid", sorted(REPORT_DIGESTS))
def test_report_json_is_pinned(grid):
    text = report_json(run_suite("all", grid))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[grid]


def test_verify_lists_every_pass_tolerance():
    # every record passes iff rel_err <= one of these
    tolerances = run_suite("series", 2).tolerances
    assert set(tolerances) == {
        "identity_rel", "area_vs_quadrature_rel", "spheroid_limit_rel", "route_rel",
        "series_sum_rel", "series_coeff_rel", "maclaurin_rel", "imag_reduction_rel"}
    assert tolerances["series_coeff_rel"] == TOLERANCES["series_coeff_rel"] == 1e-14


# the meta key of each record id's family; a registry id is judged by identity_rel
_FAMILY_KEYS = {
    "AREA_VS_QUADRATURE": "area_vs_quadrature_rel", "LIMIT_OBLATE": "spheroid_limit_rel",
    "LIMIT_PROLATE": "spheroid_limit_rel", "SIGMA1_SUM": "series_sum_rel",
    "SIGMA2_SUM": "series_sum_rel", "MACLAURIN_DERIVATIVE": "maclaurin_rel",
}
_PREFIX_KEYS = {"ROUTE_": "route_rel", "COEFF_": "series_coeff_rel",
                "IMAG_": "imag_reduction_rel"}


def _family_key(ident):
    if ident in _FAMILY_KEYS:
        return _FAMILY_KEYS[ident]
    for prefix, key in _PREFIX_KEYS.items():
        if ident.startswith(prefix):
            return key
    assert IdentityId(ident) in REGISTRY
    return "identity_rel"


def test_each_record_uses_the_tolerance_the_meta_lists(monkeypatch):
    plain = verify.make_record
    used = []

    def captured(ident, params, closed, oracle, tol):
        used.append((ident, tol))
        return plain(ident, params, closed, oracle, tol)

    # the registry rows' records are made in identities.registry_records
    monkeypatch.setattr(verify, "make_record", captured)
    monkeypatch.setattr(identities, "make_record", captured)
    report = run_suite("all", 2, 3e-8)
    assert len(used) == len(report.records)
    keys = set()
    for ident, tol in used:
        key = _family_key(ident)
        assert tol == report.tolerances[key], ident
        keys.add(key)
    assert keys == set(report.tolerances)


def test_imaginary_reduction_records_integrate_each_point_once(monkeypatch):
    # F and E at each point from one paired integral: 50 calls and 1,560
    # evaluations for the 100 records, against 100 and 2,790 with each
    # record integrated on its own
    plain = quadrature.integrate
    calls = []

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        calls.append(res.evaluations)
        return res

    monkeypatch.setattr(verify, "integrate", counted)
    records = imaginary_reduction_records(5)
    assert len(records) == 100 and all(r.passed for r in records)
    assert (len(calls), sum(calls)) == (50, 1_560)


def test_imaginary_reduction_records_read_the_reductions_at_call_time(monkeypatch):
    # a tuple bound at import kept the original reductions, so rebinding
    # verify's names (as the layer trace and a mutation probe do) reached no record
    for name in ("imaginary_modulus_reduce", "imaginary_argument_reduce"):
        plain = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda phi, k, plain=plain: tuple(
            v * (1.0 + 1e-6) for v in plain(phi, k)))
    records = imaginary_reduction_records(2)
    assert len(records) == 16 and not any(r.passed for r in records)


def _indented(report):
    payload = {
        "meta": {"version": report.version, "tolerances": report.tolerances,
                 "grid": report.grid},
        "records": [{"id": r.ident, "params": r.params, "closed": r.closed,
                     "oracle": r.oracle, "abs_err": r.abs_err,
                     "rel_err": r.rel_err, "pass": r.passed}
                    for r in report.records],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_report_json_is_indented_json_dumps():
    report = run_suite("all", 2)
    assert report_json(report) == _indented(report)
    records = (make_record("X", {"e1": 0.5, "m": 3}, 0.0, 1e-3, 1e-8),
               make_record("Y", {}, 2.0, 2.0, 1e-8),
               # strings that hold report_json's separators
               make_record("Z,\n      }", {"method": "},\n        {"}, 1.0, 1.0, 1e-8))
    assert records[0].rel_err == math.inf and not records[0].passed
    hand_built = Report(__version__, {"identity_rel": 1e-8}, None, records)
    assert report_json(hand_built) == _indented(hand_built)
    empty = Report(__version__, {}, 3, ())
    assert report_json(empty) == _indented(empty)


def test_verify_out_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(["verify", "--suite", "series", "--grid", "2",
                          "--out", str(path), "--json"], capsys)
    assert rc == 0
    on_disk = path.read_text(encoding="utf-8")
    assert on_disk == out
    payload = json.loads(on_disk)
    assert len(payload["records"]) > 0


def test_verify_out_unwritable_path(tmp_path, capsys):
    # exit 1 is a failed comparison; a bare FileNotFoundError used to end here
    path = tmp_path / "missing" / "r.json"
    rc, out, err = run_cli(["verify", "--grid", "1", "--out", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err
    assert not path.parent.exists()


def test_verify_out_csv(tmp_path, capsys):
    path = tmp_path / "report.csv"
    rc, out, _ = run_cli(["verify", "--suite", "extensions", "--grid", "2",
                          "--out", str(path), "--format", "csv", "--json"],
                         capsys)
    assert rc == 0
    raw = path.read_bytes()
    header = b"id,params,closed,oracle,abs_err,rel_err,pass\r\n"
    assert raw.startswith(header)
    records = json.loads(out)["records"]
    assert raw.count(b"\r\n") == len(records) + 1
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    assert len(rows) == len(records) + 1
    for row, rec in zip(rows[1:], records):
        assert row[0] == rec["id"]
        assert json.loads(row[1]) == rec["params"]
        assert float(row[2]) == rec["closed"]    # repr round trip is exact
        assert row[6] == ("true" if rec["pass"] else "false")


def test_budget_exhaustion_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(quadrature, "MAX_EVALS", 100)
    rc, _, err = run_cli(["integral", "--id", "LOG_F", "--eps", "1.0",
                          "--alpha", "0.3", "--beta", "0.999",
                          "--mode", "oracle"], capsys)
    assert rc == 3
    assert err.startswith("error:")


def _child_env() -> dict:
    # the child imports ellint from where this process did, so a test also
    # runs from a checkout that relies on pytest's pythonpath setting
    path = [str(Path(ellint.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ellint.cli", "area", "--axes", "1,1,1"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12.5663706143592"


def test_cli_import_skips_dataclasses():
    # every record is a named tuple: dataclasses, and the inspect module it
    # pulls in, would slow every cold start
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ellint.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_skips_argparse():
    # argparse, and the gettext it imports, load only when a command builds
    # the parser: a library caller that imports the CLI module pays for neither
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ellint.cli\n"
         "print('argparse' in sys.modules, 'gettext' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# the package's lazy modules, and for each command those whose bodies run
_LAZY = ("elliptic", "geometry", "quadrature", "identities", "_oracles", "series", "verify")
_COMMAND_RUNS = [
    (["area", "--axes", "3,2,1"], {"elliptic", "geometry"}),
    (["integral", "--id", "I1", "--mode", "closed", "--alpha", "0.5", "--k", "0.5"],
     {"elliptic", "identities"}),
    (["integral", "--id", "I1", "--mode", "oracle", "--alpha", "0.5", "--k", "0.5"],
     {"elliptic", "identities", "quadrature", "_oracles"}),
    (["series", "--id", "SIGMA1", "--e1", "0.6", "--e2", "0.3"],
     {"elliptic", "identities", "series"}),
]


@pytest.mark.parametrize("argv,ran", _COMMAND_RUNS,
                         ids=[a[0] + "-oracle" * ("oracle" in a) for a, _ in _COMMAND_RUNS])
def test_command_runs_only_the_modules_it_uses(argv, ran):
    # a lazy module becomes a plain module once its body has run; reading an
    # attribute of one would run it, so only its type is looked at
    code = ("import sys, types, ellint.cli\n"
            "ellint.cli.main(sys.argv[1:])\n"
            f"print(*(n for n in {_LAZY!r} "
            "if type(sys.modules['ellint.' + n]) is types.ModuleType))")
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == ran


def test_closed_forms_run_no_oracle_module():
    # every closed form, at one grid point of each id, leaves the oracle module
    # and the quadrature unrun
    code = ("import sys, types, ellint\n"
            "for ident in ellint.IdentityId:\n"
            "    ellint.closed_value(ident, ellint.grid_params(ident, 3)[4])\n"
            f"print(*(n for n in {_LAZY!r} "
            "if type(sys.modules['ellint.' + n]) is types.ModuleType))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"elliptic", "identities"}


def test_parser_options_are_the_registry_s():
    # build_parser reads the ids and the --<param> flags from the light
    # _options module, without loading the registry they must match
    assert list(_options.IdentityId) == list(REGISTRY)
    assert _options.PARAM_FLAGS == tuple(
        sorted({f for e in REGISTRY.values() for f in e.params_cls._fields}))


def _readme_examples() -> list:
    """(argv, expected lines) of each `$ ellint ...` line in README's sh blocks:
    the lines after it up to a blank line, the next command or the block's end.
    A `...` line, kept as a final Ellipsis, stands for the lines left out."""
    examples, in_sh, expected = [], False, None
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh, expected = line == "```sh", None
        elif in_sh and line.startswith("$ ellint "):
            expected = []
            examples.append((shlex.split(line[len("$ ellint "):]), expected))
        elif expected is not None and line == "...":
            expected.append(...)
            expected = None
        elif expected is not None and line:
            expected.append(line)
        else:
            expected = None
    return examples


_README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv,expected", _README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in _README_EXAMPLES])
def test_readme_examples_print_what_the_readme_shows(argv, expected, capsys):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    lines = out.splitlines()
    if expected[-1] is ...:
        expected = expected[:-1]
        lines = lines[:len(expected)]
    assert lines == expected
