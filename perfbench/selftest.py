"""Self-test of the benchmark (not of ellint).

    python3 perfbench/selftest.py

Checks that
  * the metric names and units in BENCHMARK.json are the ones run.py prints;
  * a different seed changes the closed_forms and cli_cold inputs, and the
    same seed repeats them;
  * two traced runs with the same seed give exactly the same per-op counts
    on every workload.
Exits non-zero on the first failed check.
"""

import json
import random
import subprocess
import sys

import inputs
import run

EXACT = ("elliptic.rf_calls_per_op", "elliptic.rd_calls_per_op",
         "elliptic.legendre_calls_per_op", "quadrature.evals_per_op",
         "series.terms_per_op", "verify.records_per_op")


def check(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "2", "--trace", "1"],
                         capture_output=True, text=True, timeout=170)
    check(out.returncode == 0, f"traced {workload} run exits 0")
    return {k: v["value"] for k, v in json.loads(out.stdout.splitlines()[-1])["metrics"].items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} matches run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    pool = run.load_pool()
    ops = [inputs.closed_forms_ops(s, run.CLOSED_FORMS_OPS, pool) for s in (1, 1, 2)]
    check(ops[0] == ops[1], "closed_forms inputs repeat for the same seed")
    check(ops[0] != ops[2], "closed_forms inputs change with the seed")
    unique = {(op[1], json.dumps(op[2], sort_keys=True)) for op in ops[0]}
    check(len(unique) == len(ops[0]), "closed_forms inputs are all distinct")
    cmds = [[inputs.cli_command(rng)[0] for _ in range(20)]
            for rng in (random.Random(1), random.Random(1), random.Random(2))]
    check(cmds[0] == cmds[1], "cli_cold commands repeat for the same seed")
    check(cmds[0] != cmds[2], "cli_cold commands change with the seed")

    for workload in sorted(run.WORKLOADS):
        first, second = traced(workload, 7), traced(workload, 7)
        for name in EXACT:
            check(first[name] == second[name],
                  f"{workload} {name} repeats exactly ({first[name]!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
