#!/usr/bin/env python3
"""girthlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dg_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports girthlab from `src/`.
Every pass runs in a fresh child interpreter (`child.py`), one at a time.
A pass makes the workload's CLI invocations or library calls, times them,
and checks every output.  New passes start while the passes' total wall time
is expected to stay within --seconds; there is always at least one.
SETUP_PROBES children only import `girthlab.cli`.  They are spread over the
run: a quarter before the first pass, the rest evenly over the gaps before
later passes and after the last one.  setup_s is their lower quartile, which
process start-up noise moves less than the median.

Names and units of the metrics come from BENCHMARK.json at the root.

With --trace 0 the result holds the end-to-end metrics of untraced passes.
With --trace 1 untraced and traced passes alternate; the result holds the
per-layer metrics of the traced passes (see spans.py), and trace.overhead_s
is the traced wall time minus the untraced one.  The spans of each traced
pass are written to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 16
DEADLINE_S = 170  # the whole run ends well inside 180 s
MEM_HEADROOM_MB = 256  # kept free beyond a workload's known peak plus a quarter

def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mem_available_mb": round(mem_available_mb()),
    }


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GIRTHLAB_MEMORY_BUDGET", None)  # every workload runs at the default budget
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def run_child(argv: list, env: dict, deadline: float) -> dict:
    """Run child.py once and return its JSON line; raise on any failure.

    The child's start time is appended to argv, for setup_s.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run deadline reached")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv, repr(t0)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.monotonic() - t0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for selftest.py")
    args = ap.parse_args(argv)

    if not (SRC / "girthlab" / "cli.py").is_file():
        print(f"error: no girthlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    print(f"workload {args.workload} seed {args.seed} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    workload = workloads.WORKLOADS[args.workload]
    ops_per_pass = len(workload.ops(args.seed, args.toy))
    cenv = child_env(env["nproc"])
    common = [args.workload, str(args.seed), "1" if args.toy else "0"]
    setups = []

    def probe(count=1):
        for _ in range(count):
            setups.append(run_child(["setup", *common, "-"], cenv, deadline)["setup_s"])

    try:
        probe()  # warm-up: byte-compiles the sources
        setups.clear()
        probe(SETUP_PROBES // 4)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: girthlab cannot be imported: {exc}", file=sys.stderr)
        return 2

    modes = ("plain", "traced") if args.trace else ("plain",)
    if args.trace:
        OUT.mkdir(exist_ok=True)
    passes = {mode: [] for mode in modes}
    attempted = failed = 0
    spent = 0.0  # wall time of the passes so far; probes do not count
    errors = []
    try:
        while True:
            count = sum(map(len, passes.values()))
            mode = modes[count % len(modes)]
            if all(passes.values()):
                expected = statistics.median(p["elapsed_s"] for p in passes[mode])
                if spent + expected > args.seconds:
                    break
                # Spread the remaining probes evenly over the gaps still to
                # come: before this pass, before each later one, after the last.
                gaps = 1 + int((args.seconds - spent) // expected)
                probe(-(-(SETUP_PROBES - len(setups)) // gaps))
            attempted += ops_per_pass
            need = workload.peak_mb * 1.25 + MEM_HEADROOM_MB
            if mem_available_mb() < need:
                failed += ops_per_pass
                errors.append(f"refused: {args.workload} needs {need:.0f} MB available")
                break
            spans_path = OUT / f"{args.workload}-seed{args.seed}-pass{count}.json"
            try:
                res = run_child([mode, *common, str(spans_path)], cenv, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failed += ops_per_pass
                errors.append(str(exc))
                break
            failed += len(res["errors"])
            errors += res["errors"]
            spent += res["elapsed_s"]
            passes[mode].append(res)
        probe(SETUP_PROBES - len(setups))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"warning: set-up probe: {exc}", file=sys.stderr)

    for e in errors:
        print(f"failed: {e}", file=sys.stderr)
    print(f"  ops {attempted}  ops_failed_ratio {failed / attempted:g}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if not all(passes.values()):
        print(json.dumps(result))
        return 1

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    for mode, rows in passes.items():
        print(f"  {len(rows)} {mode} passes, wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rows))
    print(f"  {len(setups)} set-up probes, setup_s " + " ".join(f"{x:.3f}" for x in setups))
    plain = passes["plain"]
    values = {
        "wall_s": med(plain, "wall_s"),
        "peak_rss_mb": med(plain, "peak_rss_mb"),
        "setup_s": statistics.quantiles(setups, n=4)[0],
    }
    if args.trace:
        traced = passes["traced"]
        print("  end to end: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()))
        values = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
    named = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    for k, m in metrics.items():
        print(f"  {k} {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
