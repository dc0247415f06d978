"""The benchmark's workloads: the operations of one pass and their checks.

An operation is one CLI invocation through `girthlab.cli.run(argv)` or one
library call where the CLI cannot do the job.  It fails when it raises,
returns a non-zero exit code, or its output fails its check.  Expected
values are pinned from girthlab 0.1.0 or computed independently of the
library, so a wrong order, girth or eigenvalue cannot pass.

Importing this module loads no part of girthlab: the parent process uses
the workload table without paying for numpy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, List, Optional

SPEC = ("--n", "2", "--l", "1", "--a", "2", "--b", "2")

# (girth, diameter) of the dim2 graph (n, l, a, b) = (2, 1, 2, 2), pinned
# from `dg-table --primes 3..101` of girthlab 0.1.0.
DG_PINNED = {
    3: (3, 4), 5: (5, 6), 7: (6, 8), 11: (9, 9), 13: (10, 9), 17: (10, 11),
    19: (10, 10), 23: (12, 11), 29: (10, 13), 31: (14, 12), 37: (14, 14),
    41: (10, 14), 43: (14, 13), 47: (14, 14), 53: (14, 14), 59: (14, 14),
    61: (16, 15), 67: (14, 14), 71: (14, 15), 73: (14, 16), 79: (14, 16),
    83: (14, 16), 89: (14, 16), 97: (14, 17), 101: (14, 16),
}

# Girths beyond the dense-table limit, reached by the girth-only search.
BALL_GIRTH = {307: 18, 401: 20, 503: 22, 1009: 22}

# Recipe replays: argv tail, closure order |SL_n(F_q)|, number of steps.
RECIPES = {
    "qt": (("qt", "--q", "3", "--t", "1"), 12_130_560, 11),
    "sl3": (("sl3", "--a", "4", "--b", "2"), 5616, 12),
}

# Canonical words up to each length for the dim2 tuple (2, 1, 2, 2).
WORDS_CHECKED = {8: 693, 12: 34_998}

# Second adjacency eigenvalue of the dim2 graph at p, by scipy's Lanczos
# (eigsh, tol 1e-12) on the explicit adjacency; `lambda2_ref.py` derives
# them.  The tolerance covers the deflated power iteration, which stops
# about 1.5e-4 below the reference at p = 53 (seed 0).
LAMBDA2 = {13: 3.377088930783943, 53: 3.4934728930859484}
LAMBDA2_TOL = 1e-3


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when correct, else the reason


@dataclass(frozen=True)
class Workload:
    name: str
    peak_mb: int  # measured peak RSS of one pass, for the memory guard
    ops: Callable[[int, bool], List[Op]]  # (seed, toy) -> the operations of one pass


def _run_cli(argv):
    from girthlab import cli  # looked up per call, so a traced pass sees the wrapper

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(list(argv))
    return rc, buf.getvalue()


def _cli_op(argv, check) -> Op:
    def checked(out):
        rc, text = out
        return f"exit code {rc}" if rc != 0 else check(text)

    return Op("girthlab " + " ".join(argv), lambda: _run_cli(argv), checked)


def _primes_upto(hi):
    return [p for p in range(3, hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _dg_sweep(seed, toy):
    hi = 13 if toy else 101
    primes = _primes_upto(hi)

    def check(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if [int(r["p"]) for r in rows] != primes:
            return f"rows for primes {[r['p'] for r in rows]}, expected {primes}"
        for r in rows:
            p = int(r["p"])
            got = (int(r["order"]), r["full"], int(r["girth"]), int(r["diameter"]))
            want = (p * (p * p - 1), "true", *DG_PINNED[p])
            if got != want:
                return f"p={p}: (order, full, girth, diameter) = {got}, expected {want}"
        return None

    return [_cli_op(("dg-table", *SPEC, "--primes", f"3..{hi}"), check)]


def _recipe_closure(seed, toy):
    ops = []
    for kind in ("sl3",) if toy else ("qt", "sl3"):
        tail, order, steps = RECIPES[kind]

        def check(text, order=order, steps=steps):
            out = json.loads(text)
            got = (out["closure_order"], out["expected_order"], out["closure_partial"], len(out["steps"]))
            want = (order, order, False, steps)
            return None if got == want else f"(closure, expected, partial, steps) = {got}, expected {want}"

        ops.append(_cli_op(("verify", "recipe", *tail), check))
    return ops


def _freeness(seed, toy):
    length = 8 if toy else 12

    def check(text):
        out = json.loads(text)
        got = (out["violations"], out["partial"], out["words_checked"])
        want = ([], False, WORDS_CHECKED[length])
        return None if got == want else f"(violations, partial, words_checked) = {got}, expected {want}"

    # One thread: the scan is GIL-bound, and a second thread only adds
    # scheduling noise (on 2 cores: same median, wider spread).
    argv = ("verify", "freeness", *SPEC, "--max-length", str(length), "--threads", "1")
    return [_cli_op(argv, check)]


def _spectral(seed, toy):
    p = 13 if toy else 53

    def check(text):
        out = json.loads(text)
        lam = out["second_eigenvalue"]
        if out["order"] != p * (p * p - 1) or out["seed"] != seed:
            return f"order {out['order']} and seed {out['seed']} do not match p={p}, seed={seed}"
        if abs(lam - LAMBDA2[p]) > LAMBDA2_TOL:
            return f"second eigenvalue {lam} is not within {LAMBDA2_TOL} of {LAMBDA2[p]}"
        return None

    return [_cli_op(("spectral", *SPEC, "--p", str(p), "--seed", str(seed)), check)]


def _girth_ball(seed, toy):
    def op(p):
        def call():
            from girthlab import cayley, params

            return cayley.girth(cayley.spec_generators(params.validate(2, 1, 2, 2), p))

        def check(g):
            from girthlab import params, spectral

            bound = spectral.girth_lower_bound(params.validate(2, 1, 2, 2), p).bound_reported
            if g != BALL_GIRTH[p] or g < bound:
                return f"p={p}: girth {g}, expected {BALL_GIRTH[p]} and at least {bound}"
            return None

        return Op(f"cayley.girth(p={p})", call, check)

    return [op(p) for p in ((307,) if toy else sorted(BALL_GIRTH))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dg_sweep", 290, _dg_sweep),
        Workload("recipe_closure", 390, _recipe_closure),
        Workload("freeness", 35, _freeness),
        Workload("spectral", 65, _spectral),
        Workload("girth_ball", 190, _girth_ball),
    )
}
