"""Tests for bench/layers.py, the layer table of the quadrature and verify
layers and of the cold start: a quick run has its schema, its counts repeat
exactly, and a run against a second checkout gives one run per side."""

import importlib.util
import json
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("layers", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_layer_table_has_its_schema_and_repeats_its_counts(tmp_path, monkeypatch):
    layers = _layers()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src first
    out = tmp_path / "bench.json"
    for label in ("a", "b", "a"):  # a second run of a label replaces the first
        assert layers.main(["--quick", "--label", label, "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [run["label"] for run in runs] == ["b", "a"]
    run = runs[1]
    assert set(run) == {"label", "python", "grid", "repeats", "timings", "counts"}
    assert (run["grid"], run["repeats"]) == (5, 3)

    timings = run["timings"]
    assert list(timings)[:7] == [
        "quadrature.panel_gk15", "quadrature.panel_k21", "quadrature.panel_k21_pair",
        "quadrature.first_panel_float", "quadrature.first_panel_pair",
        "quadrature.graded_both_pair", "quadrature.integrate_sin50"]
    assert list(timings)[-4:] == ["verify.run_suite_all_5", "verify.report_json",
                                  "cold.setup_source", "cold.setup_bytecode"]
    oracles = [name for name in timings if name.startswith("oracle.")]
    assert len(oracles) == 11 and len(timings) == 22
    for t in timings.values():
        assert set(t) == {"median_ms", "iqr_ms", "n"} and t["n"] == 3
        assert t["median_ms"] > 0.0 and t["iqr_ms"] >= 0.0

    counts = run["counts"]
    assert counts == runs[0]["counts"] == json.loads(json.dumps(layers.counts()))
    assert ["oracle." + name for name in counts["oracle_evals"]] == oracles
    assert counts["oracle_evals_total"] == sum(counts["oracle_evals"].values())
    sweep = counts["run_suite"]
    hist = {int(n): calls for n, calls in sweep["evals_per_integral"].items()}
    assert sweep["records"] == 892
    # 352 of the 409 integrals stop at their 21-point first panel
    assert hist == {21: 352, 51: 6, 81: 34, 111: 8, 141: 8, 171: 1}
    assert (sweep["integrals"], sweep["evaluations"]) == (409, 12639)
    assert sum(hist.values()) == sweep["integrals"]
    assert sum(n * calls for n, calls in hist.items()) == sweep["evaluations"]
    # the setup path runs no oracle, quadrature or verify sweep
    setup = counts["setup_path"]
    assert set(setup["modules"]) == {
        "ellint", "ellint._options", "ellint._version", "ellint.cli", "ellint.elliptic",
        "ellint.errors", "ellint.geometry", "ellint.identities", "ellint.series"}
    assert setup["lines"] == sum(setup["modules"].values())


def test_a_run_against_a_second_checkout_times_both_sides(tmp_path, monkeypatch):
    # the second side is this checkout's src again, imported under another
    # name: one run per side, each with every case and the same counts
    layers = _layers()
    monkeypatch.setattr(sys, "path", list(sys.path))
    modules = set(sys.modules)
    out = tmp_path / "bench.json"
    src = str(_SCRIPT.parent.parent / "src")
    assert layers.main(["--quick", "--label", "change", "--against", src,
                        "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [run["label"] for run in runs] == ["change", "against"]
    change, parent = runs
    assert list(change["timings"]) == list(parent["timings"]) and len(change["timings"]) == 22
    assert all(t["n"] == 3 for run in runs for t in run["timings"].values())
    assert change["counts"] == parent["counts"]
    assert not {name for name in sys.modules if name.startswith("ellint_against")} - modules
