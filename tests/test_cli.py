"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success or passed comparison, 1 failed comparison,
2 usage or domain error, 3 non-convergence.  JSON and CSV report formats
are pinned here byte for byte where the contract demands determinism.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellint
from ellint import IdentityId, __version__, closed_value, surface_area
from ellint.cli import main
from ellint.identities import (NEAR_ZERO_ABS_TOL, EpsAB, MuK, NuK, check,
                               log_f_closed, make_record)
from ellint.series import sigma1_sum
from ellint.verify import (AREA_QUAD_TOL, SERIES_SUM_TOL, Report, report_json,
                           run_suite)


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
    rc, out, err = run_cli(["area", "--axes", "0,1,1"], capsys)
    assert rc == 2
    assert err.startswith("error:")


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


def test_integral_both_mode_tight_tolerance_fails(capsys):
    rc, out, _ = run_cli(["integral", "--id", "PSEUDO", "--e1", "0.8",
                          "--e2", "0.4", "--tol", "1e-30"], capsys)
    assert rc == 1
    assert _lines_to_dict(out)["pass"] == "false"


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


def test_integral_json(capsys):
    rc, out, _ = run_cli(["integral", "--id", "I1", "--alpha", "0.5",
                          "--k", "0.6", "--json"], capsys)
    assert rc == 0
    (record,) = json.loads(out)["records"]
    assert record["id"] == "I1"
    assert record["params"] == {"alpha": 0.5, "k": 0.6}
    assert record["pass"] is True
    assert record["closed"] == pytest.approx(1.5428567047361814051, rel=1e-13)


def _single_record_json(tolerances, record):
    return report_json(Report(__version__, tolerances, None, (record,)))


def test_single_record_json_is_report_json(capsys):
    area = surface_area(2.0, 1.5, 1.0)
    cases = [
        (["area", "--axes", "2,1.5,1", "--json"],
         {"area_vs_quadrature_rel": AREA_QUAD_TOL},
         make_record("AREA", {"a": 2.0, "b": 1.5, "c": 1.0, "method": "auto"},
                     area, area, AREA_QUAD_TOL)),
        (["integral", "--id", "I3", "--nu", "0.3", "--k", "0.8", "--json"],
         {"identity_rel": 1e-8, "near_zero_abs": NEAR_ZERO_ABS_TOL},
         check(IdentityId.I3, NuK(0.3, 0.8), 1e-8)),
        (["series", "--id", "SIGMA1", "--e1", "0.6", "--e2", "0.3", "--json"],
         {"series_sum_rel": SERIES_SUM_TOL, "near_zero_abs": NEAR_ZERO_ABS_TOL},
         make_record("SIGMA1", {"e1": 0.6, "e2": 0.3}, sigma1_sum(0.6, 0.3).value,
                     log_f_closed(EpsAB(1.0, 0.3, 0.6)), SERIES_SUM_TOL)),
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
    rc, _, err = run_cli(["series", "--id", "SIGMA1",
                          "--e1", "0.3", "--e2", "0.6"], capsys)
    assert rc == 2
    assert err.startswith("error:")


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


def test_verify_grid_validation(capsys):
    rc, _, err = run_cli(["verify", "--grid", "1"], capsys)
    assert rc == 2
    assert "--grid" in err


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


def test_env_budget_exhaustion_exit_three(monkeypatch, capsys):
    monkeypatch.setenv("ELLINT_MAX_EVALS", "100")
    rc, _, err = run_cli(["integral", "--id", "LOG_F", "--eps", "1.0",
                          "--alpha", "0.3", "--beta", "0.999",
                          "--mode", "oracle"], capsys)
    assert rc == 3
    assert err.startswith("error:")


def test_env_budget_invalid_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("ELLINT_MAX_EVALS", "bogus")
    rc, _, err = run_cli(["integral", "--id", "PSEUDO", "--e1", "0.8",
                          "--e2", "0.4", "--mode", "oracle"], capsys)
    assert rc == 2
    assert "ELLINT_MAX_EVALS" in err


def test_console_entry_point_runs():
    # the child imports ellint from where this process did, so the test also
    # runs from a checkout that relies on pytest's pythonpath setting
    path = [str(Path(ellint.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "ellint.cli", "area", "--axes", "1,1,1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12.5663706143592"
