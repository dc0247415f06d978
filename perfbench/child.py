"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED TOY SPANS_PATH T0

MODE is `setup` (import only), `plain` or `traced`.  T0 is the parent's
time.monotonic() taken just before it started this process, so setup_s runs
from process start to the end of `import girthlab.cli`.  `run.py` starts
this script with `src` on PYTHONPATH.
"""

import sys
import time

import girthlab.cli  # noqa: F401  (the import is what setup_s measures)

setup_s = time.monotonic() - float(sys.argv[6])

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(mode, name, seed, toy, spans_path):
    if mode == "setup":
        return {"setup_s": setup_s}
    ops = workloads.WORKLOADS[name].ops(seed, toy)
    tracer = spans.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append((op.call(), None))
        except Exception:  # a failed operation is counted, and the pass goes on
            outputs.append((None, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    errors = []
    for op, (out, reason) in zip(ops, outputs):
        if reason is None:
            try:
                reason = op.check(out)
            except Exception:  # output the check cannot read fails it
                reason = traceback.format_exc(limit=3)
        if reason is not None:
            errors.append(f"{op.label}: {reason}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss / 2**20,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, rss)
        tracer.dump(spans_path)
    return result


if __name__ == "__main__":
    mode, name, seed, toy, spans_path = sys.argv[1:6]
    print(json.dumps(main(mode, name, int(seed), toy == "1", spans_path)))
