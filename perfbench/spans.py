"""In-memory span tracer for the traced benchmark passes.

The tracer wraps public girthlab functions from outside the library.  Each
wrapper is bound at every module attribute that refers to the original, so a
call through `cayley.bfs`, through `cli`'s `from .modmat import is_prime`
binding or through the package namespace records a span: name, start, end
and parent.  Nothing inside `src/girthlab/` changes.

The self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans charged to it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps

# Functions wrapped in each module.  A name that a later version of the
# library no longer defines is skipped, so the tracer keeps working.
WRAPPED = {
    "cli": ("run",),
    "cayley": (
        "bfs", "spec_generators", "cayley_stats", "dg_table", "closure", "girth", "diameter",
    ),
    "words": ("freeness_scan", "replay_recipe_qt", "replay_recipe_sl3_mod3", "eval_word_mod"),
    "spectral": ("second_eigenvalue",),
    "exactmat": (
        "magic_pair", "power_closed_form", "matrix_power", "eval_word",
        "entry_growth_bound", "binom_general",
    ),
    "modmat": ("reduce", "inverse", "group_order_sl", "is_prime", "encode", "decode"),
    "params": ("validate", "lucas_binom_mod", "admissible_exponents"),
}

# The layer each span's self time is charged to.  Spans not named here go
# to their module's default: the rest of `cayley` is the glue around the
# BFS, the rest of `words` is the recipe step replay.
LAYER = {
    "cayley.bfs": "cayley.bfs",
    "cayley.spec_generators": "cayley.spec_generators",
    "words.freeness_scan": "words.freeness",
    "spectral.second_eigenvalue": "spectral.eigen",
}
DEFAULT_LAYER = {"cayley": "cayley.stats", "words": "words.replay"}

# What a finished call reports, kept instead of the return value so that a
# traced pass holds no extra arrays.
SUMMARY = {
    "cayley.bfs": lambda kw, r: (
        r.order, r.degree, r.max_frontier, r.peak_bytes, bool(kw.get("girth_only"))
    ),
    "words.freeness_scan": lambda kw, r: r.words_checked,
    "words.replay_recipe_qt": lambda kw, r: len(r.steps),
    "words.replay_recipe_sl3_mod3": lambda kw, r: len(r.steps),
    "spectral.second_eigenvalue": lambda kw, r: (r.iterations, r.order, r.degree),
}


class Tracer:
    """Records spans of wrapped calls while `recording` is true."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, summary]
        self.recording = False
        # Indices of the open spans, innermost last.  Every wrapped call runs
        # on the main thread, so one stack serves.
        self._stack: list = []

    def install(self) -> None:
        mods = [importlib.import_module("girthlab")]
        wrappers = {}
        for short, names in WRAPPED.items():
            mod = importlib.import_module(f"girthlab.{short}")
            mods.append(mod)
            for fname in names:
                fn = getattr(mod, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name, fn):
        summarize = SUMMARY.get(name)
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span[4] = summarize(kwargs, res)
            return res

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p, _ in self.spans],
                fh,
            )


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, rss_bytes: int) -> dict:
    """Per-layer values of one traced pass, keyed by metric name.

    A layer the pass never called reports 0.  `trace.overhead_s` needs an
    untraced pass as well, so the caller adds it.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for (name, start, end, _, _), inner in zip(spans, child):
        short = name.split(".", 1)[0]
        self_s[LAYER.get(name) or DEFAULT_LAYER.get(short, short)] += end - start - inner

    def summaries(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    bfs = summaries("cayley.bfs")
    elements = sum(order for order, *_ in bfs)
    peak_bytes = max((peak for _, _, _, peak, _ in bfs), default=0)
    words_checked = sum(summaries("words.freeness_scan"))
    eigen = summaries("spectral.second_eigenvalue")
    return {
        "cayley.bfs.self_s": self_s["cayley.bfs"],
        "cayley.bfs.elements_per_s": _rate(elements, self_s["cayley.bfs"]),
        "cayley.bfs.calls": len(bfs),
        "cayley.bfs.elements": elements,
        "cayley.bfs.edges": sum(order * degree for order, degree, *_ in bfs),
        "cayley.bfs.max_frontier": max((f for _, _, f, _, _ in bfs), default=0),
        "cayley.bfs.peak_bytes": peak_bytes,
        "cayley.bfs.peak_bytes_over_rss": peak_bytes / rss_bytes,
        "cayley.bfs.ball_elements": sum(order for order, *_, girth_only in bfs if girth_only),
        "cayley.spec_generators.self_s": self_s["cayley.spec_generators"],
        "cayley.stats.self_s": self_s["cayley.stats"],
        "words.freeness.self_s": self_s["words.freeness"],
        "words.freeness.words_checked": words_checked,
        "words.freeness.words_per_s": _rate(words_checked, self_s["words.freeness"]),
        "words.replay.self_s": self_s["words.replay"],
        "words.replay.steps": sum(summaries("words.replay_recipe_qt"))
        + sum(summaries("words.replay_recipe_sl3_mod3")),
        "spectral.eigen.self_s": self_s["spectral.eigen"],
        "spectral.eigen.iterations": sum(it for it, _, _ in eigen),
        "spectral.eigen.edge_visits_per_s": _rate(
            sum(it * order * degree for it, order, degree in eigen), self_s["spectral.eigen"]
        ),
        "exactmat.self_s": self_s["exactmat"],
        "modmat.self_s": self_s["modmat"],
        "params.self_s": self_s["params"],
        "cli.self_s": self_s["cli"],
    }
