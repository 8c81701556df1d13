"""Layer table of the quadrature and verify layers and of the cold start, and
their exact counts.

    python3 bench/layers.py [--src DIR] [--against DIR] [--quick] [--label NAME]
                            [--out FILE]

Imports ellint from DIR (default: src/ beside this directory), so that one
copy of this script measures two checkouts alike.  --against adds a second
checkout's src, imported in the same process from a copy of its package
renamed ellint_against and labelled "against", and every timed case then
runs on both sides in turn, the side that goes first alternating from repeat
to repeat, so that a drift of the shared machine's speed falls on both sides
alike.  The timed part gives, for each case, the median and interquartile
range in ms per call over REPEATS interleaved repeats of about 20 ms each:
every repeat runs each case, in a fixed order.  Each sample is multiplied by
perfbench/calibrate.py's speed factor, taken just before it, so that the
times are reference-speed ms, as perfbench's are, and two runs made minutes
apart compare.  The cases are one GK15 panel, one 21-point Kronrod panel of
a float and of a pair integrand, one integrate call of a float and of a
pair integrand whose first panel meets its target, one _graded call of a
pair with both ends mapped, integrate(sin(50x), 0, 10, 1e-10), each registry
oracle's sweep over its grid-5 points, run_suite("all", 5) and report_json
of its report.  Last come the two cold-start cases, each over REPEATS fresh
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

The runs, one per side, are printed as {"runs": [...]} JSON, or with --out
added to FILE's "runs" (a run of the same label is replaced), so that FILE
holds a pair of runs to compare.  --quick takes 3 repeats of one call each,
for a test of the schema.
"""

import argparse
import collections
import contextlib
import importlib
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


def _families(pkg) -> dict:
    """{name: (ident, grid-5 params)}, one per registry oracle of the package
    pkg; the name joins the ids of the rows that share it."""
    rows = {}
    for ident in pkg.IdentityId:
        rows.setdefault(pkg.identities.REGISTRY[ident].oracle, []).append(ident)
    return {"/".join(i.value for i in idents): (idents[0], pkg.grid_params(idents[0], GRID))
            for idents in rows.values()}


def _cases(pkg) -> dict:
    """{name: callable}, each a fixed input of one layer of pkg."""
    quadrature, verify, oracle_value = pkg.quadrature, pkg.verify, pkg.oracle_value
    smooth = lambda t: math.sqrt(1.0 - 0.81 * math.sin(t) ** 2)  # noqa: E731
    pair = lambda t: (smooth(t), 1.0 / (1.0 + t * t))  # noqa: E731
    peak = lambda s, c, dt: (dt / math.sqrt(s * s + 0.25 * c * c), c * dt)  # noqa: E731
    wave = lambda x: math.sin(50.0 * x)  # noqa: E731
    k21, graded = quadrature._GK21, quadrature._graded
    report = verify.run_suite("all", GRID)
    cases = {
        "quadrature.panel_gk15": lambda: quadrature._panel(smooth, 0.0, 1.0),
        "quadrature.panel_k21": lambda: quadrature._panel(smooth, 0.0, 1.0, k21),
        "quadrature.panel_k21_pair": lambda: quadrature._panel(pair, 0.0, 1.0, k21),
        "quadrature.first_panel_float": lambda: quadrature.integrate(smooth, 0.0, 1.0, 1e-10),
        "quadrature.first_panel_pair": lambda: quadrature.integrate(pair, 0.0, 1.0, 1e-10),
        "quadrature.graded_both_pair": lambda: graded(peak, 1e-10, 0.5, 0.5),
        "quadrature.integrate_sin50": lambda: quadrature.integrate(wave, 0.0, 10.0, 1e-10),
    }
    for name, (ident, params) in _families(pkg).items():
        cases[f"oracle.{name}"] = lambda ident=ident, params=params: [
            oracle_value(ident, p) for p in params]
    cases["verify.run_suite_all_5"] = lambda: verify.run_suite("all", GRID)
    cases["verify.report_json"] = lambda: verify.report_json(report)
    return cases


def _interleaved(cases: dict, repeats: int, sample) -> dict:
    """{(side, name): [samples]} for cases {side: {name: case}}: each repeat
    takes one sample(case) of each name on each side that has it, in turn, the
    side that goes first alternating from repeat to repeat."""
    sides = list(cases)
    names = list(dict.fromkeys(name for side_cases in cases.values() for name in side_cases))
    samples = collections.defaultdict(list)
    for r in range(repeats):
        for name in names:
            for side in sides if r % 2 == 0 else sides[::-1]:
                if cases[side].get(name):
                    samples[side, name].append(sample(cases[side][name]))
    return samples


def timings(sides: dict, repeats: int, quick: bool) -> dict:
    """{side: {case: {"median_ms", "iqr_ms", "n"}}} for sides {side: package}."""
    cases = {side: _cases(pkg) for side, pkg in sides.items()}
    speed_factor = _speed_factor()

    def sample(case):
        fn, number = case
        factor = speed_factor()
        start = time.perf_counter_ns()
        for _ in range(number):
            fn()
        return factor * (time.perf_counter_ns() - start) / number / 1e6

    def calls(fn):  # calls per sample: about 20 ms each, 1 when quick
        start = time.perf_counter_ns()
        fn()
        return 1 if quick else max(1, round(2e7 / max(time.perf_counter_ns() - start, 1)))

    timed = {side: {name: (fn, calls(fn)) for name, fn in side_cases.items()}
             for side, side_cases in cases.items()}
    samples = _interleaved(timed, repeats, sample)
    return {side: {name: _summary(samples[side, name]) for name in side_cases}
            for side, side_cases in cases.items()}


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


def cold_timings(srcs: dict, repeats: int) -> dict:
    """{side: {case: {"median_ms", "iqr_ms", "n"}}} of the setup path from each
    side's src in srcs {side: src}, in reference-speed ms: under -B, and with
    the bytecode cache warmed first, the sides interleaved."""
    speed_factor = _speed_factor()

    def sample(case):
        copy, child_env, *flags = case
        factor = speed_factor()
        return factor * _setup_path(copy, child_env, *flags)[0] * 1e3

    with contextlib.ExitStack() as stack:
        cases = {}
        for side, src in srcs.items():
            copy, env, cache = stack.enter_context(_cold_copy(src))
            cached = dict(env, PYTHONPYCACHEPREFIX=cache)
            _setup_path(copy, cached)
            cases[side] = {"cold.setup_source": (copy, env, "-B"),
                           "cold.setup_bytecode": (copy, cached)}
        samples = _interleaved(cases, repeats, sample)
    return {side: {name: _summary(samples[side, name]) for name in side_cases}
            for side, side_cases in cases.items()}


def counts(pkg=None, src: str = str(ROOT / "src")) -> dict:
    """The deterministic part of the package pkg (default: ellint) from src:
    oracle evaluations per family at grid 5, the records, integrate calls and
    evaluations of run_suite("all", 5), and the modules that the setup path
    runs from src, with their source lines."""
    pkg = pkg or importlib.import_module("ellint")
    quadrature, verify, oracle_value = pkg.quadrature, pkg.verify, pkg.oracle_value

    oracle_evals = {name: sum(oracle_value(ident, p).evaluations for p in params)
                    for name, (ident, params) in _families(pkg).items()}
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


def _import_copy(src: str, name: str, tmp: str):
    """The ellint package of src, imported as name from a copy in tmp, so that
    it shares this process with another checkout's ellint."""
    shutil.copytree(Path(src) / "ellint", Path(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, tmp)
    return importlib.import_module(name)


def run(quick: bool = False, label: str = "", src: str = str(ROOT / "src"),
        against: str = None) -> list:
    """One run per side: src's ellint as label, then, with against, the
    checkout against as "against", their cases interleaved."""
    repeats = 3 if quick else REPEATS
    if against and label == "against":
        raise ValueError("the label 'against' names the --against side")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {label: (importlib.import_module("ellint"), src)}
        if against:
            sides["against"] = (_import_copy(against, "ellint_against", tmp), against)
        try:
            timed = timings({side: pkg for side, (pkg, _) in sides.items()}, repeats, quick)
            cold = cold_timings({side: side_src for side, (_, side_src) in sides.items()},
                                repeats)
            return [{"label": side, "python": platform.python_version(), "grid": GRID,
                     "repeats": repeats, "timings": {**timed[side], **cold[side]},
                     "counts": counts(pkg, side_src)} for side, (pkg, side_src) in sides.items()]
        finally:  # the copy is deleted with tmp: forget its modules too
            for name in [n for n in sys.modules if n.partition(".")[0] == "ellint_against"]:
                del sys.modules[name]
            if tmp in sys.path:
                sys.path.remove(tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds ellint")
    ap.add_argument("--against", help="a second directory that holds ellint, timed in turn")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--label", default="")
    ap.add_argument("--out", help="JSON file whose runs this run joins")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    runs = run(args.quick, args.label, args.src, args.against)
    if not args.out:
        print(json.dumps({"runs": runs}, indent=2))
        return 0
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    labels = {r["label"] for r in runs}
    doc["runs"] = [r for r in doc["runs"] if r["label"] not in labels] + runs
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
