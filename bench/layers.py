"""Layer table of the quadrature and verify layers and of the cold start, and
their exact counts.

    python3 bench/layers.py [--src DIR] [--quick] [--label NAME] [--out FILE]

Imports ellint from DIR (default: src/ beside this directory), so that one
copy of this script measures two checkouts alike.  The timed part gives, for
each case, the median and interquartile range in ms per call over REPEATS
interleaved repeats of about 20 ms each: every repeat runs each case, in a
fixed order, so that a drift of the shared machine's speed falls on every
case alike.  Each sample is multiplied by perfbench/calibrate.py's speed
factor, taken just before it, so that the times are reference-speed ms, as
perfbench's are, and two runs made minutes apart compare.  The cases are
one GK15 panel and one 21-point Kronrod panel (null where the checkout has
no such rule), integrate(sin(50x), 0, 10, 1e-10), each registry oracle's
sweep over its grid-5 points, run_suite("all", 5) and report_json of its
report.  Last come the two cold-start cases, each over REPEATS fresh
interpreters, interleaved: the setup path that perfbench's setup_s times
(import ellint and ellint.cli, then one surface_area, incomplete_e,
closed_value and sigma1_sum call), run from a copy of DIR without
__pycache__, once under -B, where every ellint module compiles from source,
and once with bytecode in a private PYTHONPYCACHEPREFIX that one child
warmed first.

The deterministic part repeats bit for bit: each registry oracle's
evaluations over its grid-5 points, and for run_suite("all", 5) its
records, its integrate calls, their evaluations and the histogram of
evaluations per call, counted by wrapping integrate in this process; and
the ellint modules whose bodies the setup path ran, with their source lines.

The run is printed as JSON, or with --out added to FILE's "runs" (a run of
the same label is replaced), so that FILE holds a pair of runs to compare.
--quick takes 3 repeats of one call each, for a test of the schema.
"""

import argparse
import collections
import contextlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = 5
REPEATS = 21

# perfbench's setup path in a fresh interpreter that imports ellint from argv[1]:
# prints its seconds, then {module: source lines} of each ellint module whose body ran
SETUP_PATH = """
import sys, time, types
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ellint, ellint.cli
from ellint.identities import AlphaK
ellint.surface_area(3.0, 2.0, 1.0)
ellint.incomplete_e(0.7, 0.8)
ellint.closed_value(ellint.IdentityId.I1, AlphaK(0.5, 0.5))
ellint.sigma1_sum(0.6, 0.3)
t1 = time.perf_counter()
import json
print(t1 - t0, json.dumps({n: open(m.__file__, "rb").read().count(b"\\n")
                           for n, m in sorted(sys.modules.items())
                           if n.partition(".")[0] == "ellint" and type(m) is types.ModuleType}))
"""


def _speed_factor():
    """perfbench/calibrate.py's speed_factor, read from that file."""
    path = ROOT / "perfbench" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("calibrate", path)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    return calibrate.speed_factor


def _families():
    """{name: (ident, grid-5 params)}, one per registry oracle; the name joins
    the ids of the rows that share it."""
    from ellint import IdentityId, grid_params
    from ellint.identities import REGISTRY

    rows = {}
    for ident in IdentityId:
        rows.setdefault(REGISTRY[ident].oracle, []).append(ident)
    return {"/".join(i.value for i in idents): (idents[0], grid_params(idents[0], GRID))
            for idents in rows.values()}


def _cases() -> dict:
    """{name: callable or None}, each a fixed input of one layer."""
    from ellint import oracle_value, quadrature, verify

    smooth = lambda t: math.sqrt(1.0 - 0.81 * math.sin(t) ** 2)  # noqa: E731
    wave = lambda x: math.sin(50.0 * x)  # noqa: E731
    k21 = getattr(quadrature, "_GK21", None)
    report = verify.run_suite("all", GRID)
    cases = {
        "quadrature.panel_gk15": lambda: quadrature._panel(smooth, 0.0, 1.0),
        "quadrature.panel_k21": None if k21 is None else (
            lambda: quadrature._panel(smooth, 0.0, 1.0, k21)),
        "quadrature.integrate_sin50": lambda: quadrature.integrate(wave, 0.0, 10.0, 1e-10),
    }
    for name, (ident, params) in _families().items():
        cases[f"oracle.{name}"] = lambda ident=ident, params=params: [
            oracle_value(ident, p) for p in params]
    cases["verify.run_suite_all_5"] = lambda: verify.run_suite("all", GRID)
    cases["verify.report_json"] = lambda: verify.report_json(report)
    return cases


def timings(repeats: int, quick: bool) -> dict:
    """{case: {"median_ms", "iqr_ms", "n"}}, or None for a case the checkout lacks."""
    cases = _cases()
    speed_factor = _speed_factor()
    live = {name: fn for name, fn in cases.items() if fn}
    number = {}
    for name, fn in live.items():  # calls per sample: about 20 ms each, 1 when quick
        start = time.perf_counter_ns()
        fn()
        once = max(time.perf_counter_ns() - start, 1)
        number[name] = 1 if quick else max(1, round(2e7 / once))
    samples = collections.defaultdict(list)
    for _ in range(repeats):
        for name, fn in live.items():
            factor = speed_factor()
            start = time.perf_counter_ns()
            for _ in range(number[name]):
                fn()
            samples[name].append(factor * (time.perf_counter_ns() - start) / number[name] / 1e6)
    return {name: _summary(samples[name]) if name in live else None for name in cases}


def _summary(samples: list) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(statistics.median(samples), 6), "iqr_ms": round(q3 - q1, 6),
            "n": len(samples)}


def _setup_path(src: str, env: dict, *flags: str) -> tuple:
    """(seconds, {module: source lines}) of SETUP_PATH in one fresh interpreter."""
    out = subprocess.run([sys.executable, *flags, "-c", SETUP_PATH, src], env=env,
                         capture_output=True, text=True, check=True).stdout
    seconds, modules = out.split(" ", 1)
    return float(seconds), json.loads(modules)


@contextlib.contextmanager
def _cold_copy(src: str):
    """(copy, env, cache) in a temporary directory: a copy of src's ellint
    without __pycache__, the environment of a child that inherits neither this
    process's bytecode settings nor its PYTHONPATH, and an empty directory."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(src) / "ellint", Path(tmp, "src", "ellint"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        yield str(Path(tmp, "src")), env, str(Path(tmp, "pycache"))


def cold_timings(src: str, repeats: int) -> dict:
    """{case: {"median_ms", "iqr_ms", "n"}} of the setup path from src, in
    reference-speed ms: under -B, and with the bytecode cache warmed first."""
    speed_factor = _speed_factor()
    with _cold_copy(src) as (copy, env, cache):
        cached = dict(env, PYTHONPYCACHEPREFIX=cache)
        _setup_path(copy, cached)
        cases = {"cold.setup_source": (env, "-B"), "cold.setup_bytecode": (cached,)}
        samples = collections.defaultdict(list)
        for _ in range(repeats):
            for name, (child_env, *flags) in cases.items():
                factor = speed_factor()
                samples[name].append(factor * _setup_path(copy, child_env, *flags)[0] * 1e3)
    return {name: _summary(samples[name]) for name in cases}


def counts(src: str = str(ROOT / "src")) -> dict:
    """The deterministic part: oracle evaluations per family at grid 5, the
    records, integrate calls and evaluations of run_suite("all", 5), and the
    modules that the setup path runs from src, with their source lines."""
    from ellint import oracle_value, quadrature, verify

    oracle_evals = {name: sum(oracle_value(ident, p).evaluations for p in params)
                    for name, (ident, params) in _families().items()}
    plain, calls = quadrature.integrate, []

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        calls.append(res.evaluations)
        return res

    # _graded reads integrate from quadrature, the imaginary reductions from verify
    quadrature.integrate = verify.integrate = counted
    try:
        records = len(verify.run_suite("all", GRID).records)
    finally:
        quadrature.integrate = verify.integrate = plain
    histogram = collections.Counter(calls)
    with _cold_copy(src) as (copy, env, _):
        modules = _setup_path(copy, env, "-B")[1]
    return {
        "oracle_evals": oracle_evals,
        "oracle_evals_total": sum(oracle_evals.values()),
        "run_suite": {"records": records, "integrals": len(calls), "evaluations": sum(calls),
                      "evals_per_integral": {str(n): histogram[n] for n in sorted(histogram)}},
        "setup_path": {"modules": modules, "lines": sum(modules.values())},
    }


def run(quick: bool = False, label: str = "", src: str = str(ROOT / "src")) -> dict:
    repeats = 3 if quick else REPEATS
    return {"label": label, "python": platform.python_version(), "grid": GRID,
            "repeats": repeats, "timings": {**timings(repeats, quick), **cold_timings(src, repeats)},
            "counts": counts(src)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds ellint")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--label", default="")
    ap.add_argument("--out", help="JSON file whose runs this run joins")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    result = run(args.quick, args.label, args.src)
    if not args.out:
        print(json.dumps(result, indent=2))
        return 0
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"] = [r for r in doc["runs"] if r["label"] != args.label] + [result]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
