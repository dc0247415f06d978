#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the workloads that the code defines; runs
every workload at a toy size, untraced and traced, and asserts that each run
is correct and emits every metric that BENCHMARK.json names, with its unit; and checks that run.py fails without printing a result when
the girthlab sources are missing.  Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run_bench(root, workload, trace):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check(all(0 < len(w["why"]) <= 200 for w in spec["workloads"]), "each why is 1-200 characters")

    for trace, named in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in named}
        for name in workloads.WORKLOADS:
            proc = run_bench(run.ROOT, name, trace)
            what = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0: {proc.stderr[-1500:]}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{what} result keys")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what} is correct: {out}")
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            check(got == want, f"{what} emits every named metric with its unit: {got}")
            check(all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()),
                  f"{what} values are numbers")
            print(f"ok {what}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run_bench(bare, "dg_sweep", 0)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the girthlab sources run.py fails and prints no result")
    shutil.rmtree(bare)
    print("ok no sources: exit", proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
