"""The ellint benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory, and the run fails if it is not there.  Workloads:

  closed_forms  library caller: one op is one closed-form call (surface_area,
                F/E/D, K/E/D, identity closed_value) on unique seeded inputs,
                each checked against an mpmath reference
  verify_sweep  verifier: one op is run_suite("all", grid=5) + report_json
  cli_cold      command-line user: one op is one fresh `python -m ellint.cli`

--trace 0 prints the end-to-end metrics; --trace 1 wraps the library's
public functions (see spans.py) and prints the per-layer metrics instead.
See README.md for what each metric means and the measurement limits.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from calibrate import speed_factor
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL_FILE = HERE / "identity_refs.json"
TRACE_DIR = ROOT / ".bench_out"

# closed_forms ok_frac tolerance: the library's own default relative
# tolerance for a closed form against an independent value
# (identities.check and `ellint verify --tol`)
REL_TOL = 1e-8
# The (pi/2, 1) corner box in which incomplete F and D are known to miss
# REL_TOL (see known_defect)
CORNER_BOX = 0.1
CLOSED_FORMS_OPS = 2400
BURST_OPS = 40
VERIFY_GRID = 5
VERIFY_RECORDS = 892        # records in run_suite("all", grid=5)
SETUP_RUNS = 7
PROBE_RUNS = 5
CLI_TRACE_COMMANDS = 20
CHILD_TIMEOUT = 60.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
IMPORTED_MODULES = ("ellint", "ellint._version", "ellint.errors", "ellint.elliptic",
                    "ellint.geometry", "ellint.quadrature", "ellint.identities",
                    "ellint.series", "ellint.verify", "ellint.cli")
PER_LAYER = {
    "elliptic.rf_calls_per_op": "count",
    "elliptic.rd_calls_per_op": "count",
    "elliptic.legendre_calls_per_op": "count",
    "elliptic.self_ms_per_op": "ms",
    "elliptic.max_rel_err": "rel",
    "geometry.area_calls_per_op": "count",
    "geometry.self_ms_per_op": "ms",
    "geometry.max_rel_err": "rel",
    "geometry.raised_frac": "frac",
    "identities.closed_calls_per_op": "count",
    "identities.closed_self_ms_per_op": "ms",
    "identities.check_ms": "ms",
    "identities.max_rel_err": "rel",
    "quadrature.integrals_per_op": "count",
    "quadrature.evals_per_op": "count",
    "quadrature.evals_per_integral": "count",
    "quadrature.self_ms_per_op": "ms",
    "quadrature.nonconverged": "count",
    "series.sum_calls_per_op": "count",
    "series.terms_per_op": "count",
    "series.self_ms_per_op": "ms",
    "verify.records_per_op": "count",
    "verify.failed_records_per_op": "count",
    "verify.suite_ms.geometry": "ms",
    "verify.suite_ms.integrals": "ms",
    "verify.suite_ms.series": "ms",
    "verify.suite_ms.extensions": "ms",
    "verify.serialize_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.import_self_ms.{m}": "ms" for m in IMPORTED_MODULES},
    "cli.run_ms": "ms",
    "trace.overhead_frac": "frac",
}

LEGENDRE = inputs.LEGENDRE_INCOMPLETE + inputs.LEGENDRE_COMPLETE

# Both print reference-speed seconds (see calibrate.py) of the part they time.
SETUP_SNIPPET = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from calibrate import speed_factor
f0 = speed_factor()
t0 = time.perf_counter()
import ellint, ellint.cli
from ellint.identities import AlphaK
ellint.surface_area(3.0, 2.0, 1.0)
ellint.incomplete_e(0.7, 0.8)
ellint.closed_value(ellint.IdentityId.I1, AlphaK(0.5, 0.5))
ellint.sigma1_sum(0.6, 0.3)
t1 = time.perf_counter()
print(repr((t1 - t0) * (f0 + speed_factor()) / 2))
"""

RUN_SNIPPET = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from calibrate import speed_factor
import ellint.cli
f0 = speed_factor()
t0 = time.perf_counter()
code = ellint.cli.main(sys.argv[1:])
t1 = time.perf_counter()
print(repr((t1 - t0) * (f0 + speed_factor()) / 2), file=sys.stderr)
sys.exit(code)
"""

# `ellint ...` with the layer trace installed before main() runs; prints
# the folded trace (wall seconds) as the last line of stderr.
TRACED_CLI_SNIPPET = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
from spans import Tracer
import ellint.cli
tracer = Tracer()
tracer.install()
code = ellint.cli.main(sys.argv[1:])
tracer.uninstall()
tracer.fold()
print(json.dumps(tracer.state()), file=sys.stderr)
sys.exit(code)
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot run or an output check failed."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv):
    """Run argv to completion from the checkout root; return its
    CompletedProcess, raising BenchmarkError on a non-zero exit."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def timed_child(argv):
    """One cold process, timed from spawn to reaped.

    Returns (reference-speed seconds, exit code, stdout, stderr, max RSS in
    MB, speed factor).  os.wait4 reaps the child so its own peak RSS is
    known; the output is read after the exit, which is safe because it is
    far below the pipe buffer.
    """
    factor = speed_factor()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    factor = (factor + speed_factor()) / 2
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        out, err = proc.stdout.read(), proc.stderr.read()
    return elapsed * factor, proc.returncode, out, err, usage.ru_maxrss / 1024.0, factor


def setup_seconds() -> float:
    """Median over fresh interpreters of import plus warm-up of ellint."""
    times = [float(run_child([sys.executable, "-c", SETUP_SNIPPET]).stdout)
             for _ in range(SETUP_RUNS)]
    return statistics.median(times)


def pin_to_current_cpu():
    """Keep this process and its children on the CPU it runs on now, so the
    speed factor is always measured on the CPU that runs the timed work."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def import_ellint():
    sys.path.insert(0, str(SRC))
    import ellint
    import ellint.cli
    if Path(ellint.__file__).resolve().parent != (SRC / "ellint").resolve():
        raise BenchmarkError(f"imported ellint from {ellint.__file__}, not {SRC}")
    return ellint


# ---------------------------------------------------------------------------
# statistics


def latency_metrics(durations, ok: int) -> dict:
    return {
        "ops_per_s": len(durations) / math.fsum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_p90_ms": 1e3 * statistics.quantiles(durations, n=10, method="inclusive")[8],
        "ok_frac": ok / len(durations),
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


def layer_metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-op figures of the library layers from the folded spans."""
    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    def closed(name):
        return name == "identities.closed_value" or (
            name.startswith("identities.") and name.endswith("_closed"))

    integrals = tr.count(lambda n: n == "quadrature.integrate")
    sums = ("series.sigma1_sum", "series.sigma2_sum")

    def total_ms(name):
        return 1e3 * tr.total.get(name, 0.0) / n_ops

    return {
        "elliptic.rf_calls_per_op": tr.calls["elliptic.carlson_rf"] / n_ops,
        "elliptic.rd_calls_per_op": tr.calls["elliptic.carlson_rd"] / n_ops,
        "elliptic.legendre_calls_per_op":
            tr.count(lambda n: n.split(".")[-1] in LEGENDRE and n.startswith("elliptic.")) / n_ops,
        "elliptic.self_ms_per_op": 1e3 * tr.seconds(layer("elliptic")) / n_ops,
        "geometry.area_calls_per_op":
            tr.entries(lambda n: n.startswith("geometry.") and "area" in n) / n_ops,
        "geometry.self_ms_per_op": 1e3 * tr.seconds(layer("geometry")) / n_ops,
        "identities.closed_calls_per_op": tr.count(closed) / n_ops,
        "identities.closed_self_ms_per_op": 1e3 * tr.seconds(closed) / n_ops,
        "identities.check_ms": total_ms("identities.check"),
        "quadrature.integrals_per_op": integrals / n_ops,
        "quadrature.evals_per_op": tr.evaluations / n_ops,
        "quadrature.evals_per_integral": tr.evaluations / integrals if integrals else 0.0,
        "quadrature.self_ms_per_op": 1e3 * tr.seconds(layer("quadrature")) / n_ops,
        "quadrature.nonconverged": tr.nonconverged,
        "series.sum_calls_per_op": tr.count(lambda n: n in sums) / n_ops,
        "series.terms_per_op": tr.terms / n_ops,
        "series.self_ms_per_op": 1e3 * tr.seconds(layer("series")) / n_ops,
        "verify.suite_ms.geometry": total_ms("verify.geometry_records"),
        "verify.suite_ms.integrals": total_ms("verify.identity_records"),
        "verify.suite_ms.series": total_ms("verify.series_records"),
        "verify.suite_ms.extensions": total_ms("verify.extension_records"),
        "verify.serialize_ms": total_ms("verify.report_json"),
    }


def cli_probe_metrics(seed: int) -> dict:
    """Where a cold `ellint` process spends its time, from fresh interpreters."""
    py = sys.executable
    interp = statistics.median(timed_child([py, "-c", "pass"])[0] for _ in range(PROBE_RUNS))
    imported = statistics.median(timed_child([py, "-c", "import ellint.cli"])[0]
                                 for _ in range(PROBE_RUNS))
    self_us = {m: [] for m in IMPORTED_MODULES}
    for _ in range(PROBE_RUNS):
        factor = speed_factor()
        err = run_child([py, "-X", "importtime", "-c", "import ellint.cli"]).stderr
        factor = (factor + speed_factor()) / 2
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in self_us:
                self_us[fields[2].strip()].append(int(fields[0].split(":")[1]) * factor)
    rng = random.Random(seed)
    run_s = []
    for _ in range(PROBE_RUNS):
        argv, _call = inputs.cli_command(rng)
        err = run_child([py, "-c", RUN_SNIPPET] + argv).stderr
        run_s.append(float(err.splitlines()[-1]))
    out = {"cli.interp_ms": 1e3 * interp, "cli.import_ms": 1e3 * (imported - interp),
           "cli.run_ms": 1e3 * statistics.median(run_s)}
    for m, values in self_us.items():
        out[f"cli.import_self_ms.{m}"] = statistics.median(values) / 1e3 if values else 0.0
    return out


# ---------------------------------------------------------------------------
# closed_forms


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())["points"]


def references(ops) -> list:
    """mpmath references, computed in a child process before timing."""
    todo = [i for i, op in enumerate(ops) if op[3] is None]
    proc = subprocess.run([sys.executable, str(HERE / "reference.py"), "ops"], cwd=ROOT,
                          input=json.dumps([[ops[i][1], *ops[i][2]] for i in todo]),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"reference.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    refs = [op[3] for op in ops]
    for i, ref in zip(todo, json.loads(proc.stdout)):
        refs[i] = ref
    if any(ref is None or not math.isfinite(ref) for ref in refs):
        raise BenchmarkError("missing or non-finite mpmath reference")
    return refs


def identity_args(identities, name: str, params: dict) -> tuple:
    """(IdentityId, parameter object) for closed_value."""
    cls = getattr(identities, inputs.IDENTITY_PARAMS[name][0])
    return identities.IdentityId[name], cls(**params)


def closed_form_calls(ops, ellint) -> list:
    """(function, args) per op, resolved through the module attributes now
    in place (so a traced run resolves to the wrappers)."""
    geometry, elliptic, identities = ellint.geometry, ellint.elliptic, ellint.identities
    calls = []
    for kind, name, args, _ in ops:
        if kind == "area":
            calls.append((geometry.surface_area, args))
        elif kind == "legendre":
            calls.append((getattr(elliptic, name), args))
        else:
            calls.append((identities.closed_value, identity_args(identities, name, args)))
    return calls


def run_calls(calls, lo, hi, outs, durs):
    """Ops lo..hi back to back; durations in reference-speed seconds.
    Returns the speed factor applied."""
    factor = speed_factor()
    clock = time.perf_counter
    for i in range(lo, hi):
        fn, args = calls[i]
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # the library's failures are measured, not fatal
            out = exc
        durs[i] = clock() - start
        outs[i] = out
    factor = (factor + speed_factor()) / 2
    for i in range(lo, hi):
        durs[i] *= factor
    return factor


def known_defect(ellint, op, out) -> bool:
    """Whether a failed closed_forms op fails in one of the ways the library
    is known to fail at the commit that added the benchmark.

    Such ops lower ok_frac but leave the run correct; any other failure
    (a wrong area, identity or complete integral, an unexpected exception)
    fails the run.  The known defects: surface_area raises DivergenceError
    for thin discs and ZeroDivisionError for flat exact oblate spheroids,
    and incomplete F and D lose accuracy near (pi/2, 1).
    """
    kind, name, args, _ = op
    if kind == "area":
        return isinstance(out, (ellint.errors.DivergenceError, ZeroDivisionError))
    return (name in ("incomplete_f", "incomplete_d") and not isinstance(out, Exception)
            and args[0] >= inputs.HALF_PI - CORNER_BOX and args[1] >= 1.0 - CORNER_BOX)


def spin_until(deadline: float):
    while time.perf_counter() < deadline:
        pass


def closed_forms(args, ellint, tracer):
    ops = inputs.closed_forms_ops(args.seed, CLOSED_FORMS_OPS, load_pool())
    refs = references(ops)
    n = len(ops)
    plain = closed_form_calls(ops, ellint)
    outs, durs = [None] * n, [0.0] * n
    if tracer:
        tracer.install()
        traced = closed_form_calls(ops, ellint)
        tracer.uninstall()
        t_outs, t_durs = [None] * n, [0.0] * n
    # bursts of back-to-back ops, spread evenly over the run, so that a run
    # of unique referenced inputs covers the whole measuring window
    bursts = range(0, n, BURST_OPS)
    period = args.seconds / len(bursts)
    t0 = time.perf_counter()
    for b, lo in enumerate(bursts):
        spin_until(t0 + b * period)
        hi = min(n, lo + BURST_OPS)
        run_calls(plain, lo, hi, outs, durs)
        if tracer:
            tracer.install()
            factor = run_calls(traced, lo, hi, t_outs, t_durs)
            tracer.uninstall()
            tracer.fold(factor)
    spin_until(t0 + args.seconds)

    failed, worst = {}, {}
    raised_area = unexpected = 0
    for op, ref, out in zip(ops, refs, outs):
        kind = op[0]
        if isinstance(out, Exception):
            raised_area += kind == "area"
            err = math.inf
        else:
            err = rel_err(out, ref) if math.isfinite(out) else math.inf
            if math.isfinite(err):
                worst[kind] = max(worst.get(kind, 0.0), err)
        if not err <= REL_TOL:
            failed[kind] = failed.get(kind, 0) + 1
            if not known_defect(ellint, op, out):
                unexpected += 1
                if unexpected <= 10:
                    print(f"closed_forms: unexpected failure {op[1]} {op[2]}: {out!r}, "
                          f"reference {ref!r}", file=sys.stderr)
    n_failed = sum(failed.values())
    print(f"closed_forms: {n_failed} of {n} ops failed the mpmath check at rel "
          f"{REL_TOL:g} (by kind: {failed}), {unexpected} of them outside the known "
          f"defects; worst rel err by kind: {worst}", file=sys.stderr)

    if tracer:
        if any(repr(a) != repr(b) for a, b in zip(outs, t_outs)):
            raise BenchmarkError("traced and untraced results differ")
        m = layer_metrics(tracer, n)
        n_area = sum(1 for op in ops if op[0] == "area")
        m.update({
            "elliptic.max_rel_err": worst.get("legendre", 0.0),
            "geometry.max_rel_err": worst.get("area", 0.0),
            "identities.max_rel_err": worst.get("identity", 0.0),
            "geometry.raised_frac": raised_area / n_area,
            "trace.overhead_frac": math.fsum(t_durs) / math.fsum(durs) - 1.0,
        })
        return m, n, unexpected
    m = latency_metrics(durs, n - n_failed)
    # a preemption inside one burst would swamp a rate taken over the
    # ~40 ms of busy time a run holds; the median burst is immune to it
    m["ops_per_s"] = statistics.median(
        (min(n, lo + BURST_OPS) - lo) / math.fsum(durs[lo:lo + BURST_OPS]) for lo in bursts)
    m["peak_rss_mb"] = self_rss_mb()
    return m, n, unexpected


# ---------------------------------------------------------------------------
# verify_sweep


def verify_op(verify):
    """One op; its duration in reference-speed seconds, report, JSON text."""
    factor = speed_factor()
    start = time.perf_counter()
    report = verify.run_suite("all", grid=VERIFY_GRID)
    text = verify.report_json(report)
    elapsed = time.perf_counter() - start
    factor = (factor + speed_factor()) / 2
    return elapsed * factor, report, text, factor


def verify_sweep(args, ellint, tracer):
    verify = ellint.verify
    expected = verify_op(verify)[2]
    durs, t_durs, failed, records, failed_records = [], [], 0, 0, 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        dur, report, text, _ = verify_op(verify)
        durs.append(dur)
        ok = (report.all_passed and len(report.records) == VERIFY_RECORDS
              and text == expected)
        failed += not ok
        if tracer:
            tracer.install()
            dur, report, text, factor = verify_op(verify)
            tracer.uninstall()
            tracer.fold(factor)
            t_durs.append(dur)
            records += len(report.records)
            failed_records += len(report.failures())
            failed += text != expected
    if failed:
        print(f"verify_sweep: {failed} ops failed the report checks (all_passed, "
              f"{VERIFY_RECORDS} records, identical JSON)", file=sys.stderr)
    if tracer:
        m = layer_metrics(tracer, len(t_durs))
        m.update({
            "verify.records_per_op": records / len(t_durs),
            "verify.failed_records_per_op": failed_records / len(t_durs),
            "trace.overhead_frac": statistics.median(t_durs) / statistics.median(durs) - 1.0,
        })
        return m, len(durs) + len(t_durs), failed
    m = latency_metrics(durs, len(durs) - failed)
    m["peak_rss_mb"] = self_rss_mb()
    return m, len(durs), failed


# ---------------------------------------------------------------------------
# cli_cold


def library_value(ellint, call) -> float:
    kind, name, args = call
    if kind == "area":
        return ellint.geometry.surface_area(*args)
    if kind == "identity":
        identities = ellint.identities
        return identities.closed_value(*identity_args(identities, name, args))
    fn = ellint.series.sigma1_sum if name == "SIGMA1" else ellint.series.sigma2_sum
    return fn(*args).value


def printed_value(kind: str, stdout: str) -> str:
    if kind != "series":
        return stdout.strip()
    for line in stdout.splitlines():
        if line.startswith("sum"):
            return line.split()[1]
    return ""


def cli_checked(argv, call, expected, child) -> tuple:
    """Run one CLI command in a cold child; (timed_child result, ok)."""
    result = timed_child(child + argv)
    _, code, out, err = result[:4]
    ok = code == 0 and printed_value(call[0], out) == expected
    if not ok:
        print(f"cli_cold: {argv} exited {code}, printed {out!r}, expected "
              f"{expected}: {err[-500:]}", file=sys.stderr)
    return result, ok


def cli_cold(args, ellint, tracer):
    rng = random.Random(args.seed)
    plain = [sys.executable, "-m", "ellint.cli"]
    traced = [sys.executable, "-c", TRACED_CLI_SNIPPET]
    durs, t_durs, rss, failed = [], [], [], 0
    t0 = time.perf_counter()
    # a traced run alternates plain and traced children and always traces
    # at least the seed's first CLI_TRACE_COMMANDS commands
    while (time.perf_counter() - t0 < args.seconds
           or tracer and len(t_durs) < CLI_TRACE_COMMANDS):
        argv, call = inputs.cli_command(rng)
        expected = "%.15g" % library_value(ellint, call)
        result, ok = cli_checked(argv, call, expected, plain)
        durs.append(result[0])
        rss.append(result[4])
        failed += not ok
        if tracer:
            result, ok = cli_checked(argv, call, expected, traced)
            t_durs.append(result[0])
            failed += not ok
            if ok and len(t_durs) <= CLI_TRACE_COMMANDS:
                tracer.merge(json.loads(result[3].splitlines()[-1]), result[5])
    if tracer:
        # the layers over the first CLI_TRACE_COMMANDS traced children only,
        # so that the per-op counts do not depend on the run's length
        m = layer_metrics(tracer, CLI_TRACE_COMMANDS)
        m["trace.overhead_frac"] = statistics.median(t_durs) / statistics.median(durs) - 1.0
        return m, len(durs) + len(t_durs), failed
    m = latency_metrics(durs, len(durs) - failed)
    m["peak_rss_mb"] = statistics.median(rss)
    return m, len(durs), failed


WORKLOADS = {"closed_forms": closed_forms, "verify_sweep": verify_sweep,
             "cli_cold": cli_cold}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ellint benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        if not (SRC / "ellint" / "__init__.py").is_file():
            raise BenchmarkError(f"no ellint package under {SRC}")
        pin_to_current_cpu()
        setup = None if args.trace else setup_seconds()
        ellint = import_ellint()
        tracer = Tracer() if args.trace else None
        metrics, attempted, failed = WORKLOADS[args.workload](args, ellint, tracer)
        if args.trace:
            metrics.update(cli_probe_metrics(args.seed))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        names = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(tracer.table(), indent=1) + "\n")
    else:
        metrics["setup_s"] = setup
        names = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
