"""Command-line frontend: construction, verification, and report emission.

One subcommand per capability keeps the acceptance suite scriptable:

    validate, construct, girth, diameter, dg-table, bound, spectral,
    verify freeness | generation | recipe (sl3 | qt) | lucas,
    subgroup-gens, export-dot

Exit codes: 0 success, 1 parameter error, 2 budget exhaustion with partial
results written, 3 verification failure (a claim check that did not hold).
All output is deterministic for a fixed configuration; wall-clock timings
are zeroed unless --timings is passed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import cayley, modmat, params, spectral, words
from .cayley import BudgetExceededError, DegenerateSpecError
from .exactmat import ParameterError, magic_pair, power_closed_form
from .modmat import is_prime
from .params import GraphSpec
from .words import RecipeError

SCHEMA_VERSION = 1
ENV_MEMORY_BUDGET = "GIRTHLAB_MEMORY_BUDGET"

EXIT_OK = 0
EXIT_PARAM = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    n: Optional[int] = None
    l: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    p: Optional[int] = None
    primes: Optional[str] = None
    q: Optional[int] = None
    t: Optional[int] = None
    m: Optional[int] = None
    max_length: Optional[int] = None
    max_alpha: int = 200
    moduli: str = "2,3,5,7"
    word_budget: int = words.DEFAULT_WORD_BUDGET
    order_limit: int = 2_000_000
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET
    threads: int = 1
    seed: int = 0
    fmt: str = "json"
    output: Optional[str] = None
    timings: bool = False
    skip_unit_residues: bool = False


def default_memory_budget() -> int:
    """The budget from GIRTHLAB_MEMORY_BUDGET when set, else the library default."""
    raw = os.environ.get(ENV_MEMORY_BUDGET)
    if not raw:
        return cayley.DEFAULT_MEMORY_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ParameterError(
            f"{ENV_MEMORY_BUDGET} must be a positive integer (bytes), got {raw!r}"
        )
    return budget


def prime_iter(
    selector,
    a: Optional[int] = None,
    b: Optional[int] = None,
    *,
    skip_unit_residues: bool = False,
) -> List[int]:
    """Deterministic ascending primes from a range or explicit list.

    Ranges ("lo..hi", inclusive) are filtered by the degenerate congruences
    when a, b are given: p dividing a or b is skipped, and optionally p with
    a or b congruent to 1.  Explicit lists are returned as given (per-prime
    failures surface in the report rows instead).
    """
    explicit = True
    if isinstance(selector, str):
        sel = selector.strip()
        if ".." in sel:
            lo_s, hi_s = sel.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 2 or hi < 2:
                raise ParameterError(f"range bounds must be >= 2, got {sel!r}")
            values = range(lo, hi + 1)
            explicit = False
        else:
            values = [int(x) for x in sel.split(",") if x.strip()]
    else:
        values = list(selector)
    out = []
    for p in values:
        if not is_prime(p):
            if explicit:
                raise ParameterError(f"{p} is not prime")
            continue
        if not explicit:
            if a is not None and a % p == 0:
                continue
            if b is not None and b % p == 0:
                continue
            if skip_unit_residues and (
                (a is not None and a % p == 1) or (b is not None and b % p == 1)
            ):
                continue
        out.append(p)
    out.sort()
    if not out:
        print("warning: prime selection is empty", file=sys.stderr)
    return out


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _spec(cfg: RunConfig) -> GraphSpec:
    return params.validate(cfg.n, cfg.l, cfg.a, cfg.b)


def _spec_or_unguaranteed(cfg: RunConfig) -> Tuple[Optional[GraphSpec], dict]:
    """Validate when possible; out-of-domain tuples come back unguaranteed."""
    try:
        spec = _spec(cfg)
        return spec, spec.to_json()
    except ParameterError:
        info = {
            "n": cfg.n,
            "l": cfg.l,
            "a": cfg.a,
            "b": cfg.b,
            "regime": None,
            "guarantees": {},
            "note": "outside the validated parameter domain; measured only",
        }
        return None, info


def _cmd_validate(cfg: RunConfig) -> int:
    spec = _spec(cfg)
    _emit(cfg, _json(spec.to_json()))
    return EXIT_OK


def _matrix_rows(M) -> list:
    return [list(r) for r in M.entries]


def _cmd_construct(cfg: RunConfig) -> int:
    A, B = magic_pair(cfg.n, cfg.a, cfg.b)
    X = power_closed_form(A, cfg.l)
    Y = power_closed_form(B, cfg.l)
    payload = {
        "n": cfg.n,
        "l": cfg.l,
        "a": cfg.a,
        "b": cfg.b,
        "A": _matrix_rows(A),
        "B": _matrix_rows(B),
        "X=A^l": _matrix_rows(X),
        "Y=B^l": _matrix_rows(Y),
    }
    if cfg.p is not None:
        payload["modulus"] = cfg.p
        payload["X mod m"] = _matrix_rows(modmat.reduce(X, cfg.p))
        payload["Y mod m"] = _matrix_rows(modmat.reduce(Y, cfg.p))
    if cfg.fmt == "text":
        lines = []
        for key in ("A", "B", "X=A^l", "Y=B^l", "X mod m", "Y mod m"):
            if key in payload:
                lines.append(f"{key}:")
                lines += ["  " + " ".join(str(x) for x in row) for row in payload[key]]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _json(payload))
    return EXIT_OK


def _cmd_graph_stats(cfg: RunConfig) -> int:
    """Handler for both `girth` and `diameter`: one BFS yields the full row."""
    spec, spec_info = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    stats = cayley.cayley_stats(
        tuple_spec, cfg.p, memory_budget=cfg.memory_budget, propagate_errors=True
    )
    payload = {"spec": spec_info, **stats.to_json()}
    if not cfg.timings:
        payload["seconds"] = 0.0
    _emit(cfg, _json(payload))
    return EXIT_OK


def _cmd_dg_table(cfg: RunConfig) -> int:
    spec, spec_info = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    primes = prime_iter(
        cfg.primes, cfg.a, cfg.b, skip_unit_residues=cfg.skip_unit_residues
    )
    rows = cayley.dg_table(tuple_spec, primes, memory_budget=cfg.memory_budget)
    for r in rows:
        if r.error:
            print(f"warning: p={r.m}: {r.error}", file=sys.stderr)
    if cfg.fmt == "json":
        payload = {
            "spec": spec_info,
            "rows": [
                {**r.to_json(), "seconds": (r.seconds if cfg.timings else 0.0)}
                for r in rows
            ],
        }
        _emit(cfg, _json(payload))
    else:
        _emit(cfg, cayley.stats_csv(rows, timings=cfg.timings))
    return EXIT_OK


def _cmd_bound(cfg: RunConfig) -> int:
    spec, _ = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    gb = spectral.girth_lower_bound(tuple_spec, cfg.p)
    _emit(cfg, _json(gb.to_json()))
    return EXIT_OK


def _cmd_spectral(cfg: RunConfig) -> int:
    spec, spec_info = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    X, Y = cayley.spec_generators(tuple_spec, cfg.p)
    report = spectral.second_eigenvalue(
        [X, Y],
        order_limit=cfg.order_limit,
        seed=cfg.seed,
        memory_budget=cfg.memory_budget,
    )
    _emit(cfg, _json({"spec": spec_info, "p": cfg.p, **report.to_json()}))
    return EXIT_OK


def _cmd_verify_freeness(cfg: RunConfig) -> int:
    spec, spec_info = _spec_or_unguaranteed(cfg)
    report = words.freeness_scan(
        cfg.n,
        cfg.l,
        cfg.a,
        cfg.b,
        cfg.max_length,
        budget=cfg.word_budget,
        threads=cfg.threads,
    )
    guaranteed = spec is not None and spec.has(params.FREENESS)
    payload = {
        "spec": spec_info,
        "guaranteed_free": guaranteed,
        **report.to_json(),
    }
    _emit(cfg, _json(payload))
    if report.violations and guaranteed:
        return EXIT_VERIFY
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK


def _asserted_generation_prime(spec: Optional[GraphSpec], p: int) -> bool:
    """Is full generation at p an asserted claim (vs merely reported)?

    dim2 asserts every prime not dividing a or b; dim3 asserts only p = 3;
    the general regime asserts only p = q.  Larger primes sit below unknown
    effective constants and are reported, never asserted.
    """
    if spec is None or not spec.has(params.GENERATION):
        return False
    if spec.regime == "dim2":
        return spec.a % p != 0 and spec.b % p != 0
    if spec.regime == "dim3":
        return p == 3
    return p == spec.q


def _cmd_verify_generation(cfg: RunConfig) -> int:
    spec, spec_info = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    X, Y = cayley.spec_generators(tuple_spec, cfg.p)
    order = cayley.closure([X, Y], memory_budget=cfg.memory_budget)
    expected = modmat.group_order_sl(cfg.n, cfg.p) if is_prime(cfg.p) else None
    full = None if expected is None else order == expected
    asserted = _asserted_generation_prime(spec, cfg.p)
    payload = {
        "spec": spec_info,
        "p": cfg.p,
        "order": order,
        "expected_order": expected,
        "generated_full": full,
        "asserted": asserted,
    }
    _emit(cfg, _json(payload))
    if asserted and full is False:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify_recipe(cfg: RunConfig) -> int:
    if cfg.subcommand == "verify-recipe-sl3":
        replay = words.replay_recipe_sl3_mod3(
            cfg.a, cfg.b, memory_budget=cfg.memory_budget
        )
    else:
        replay = words.replay_recipe_qt(
            cfg.q, cfg.t, memory_budget=cfg.memory_budget
        )
    _emit(cfg, _json(replay.to_json()))
    return EXIT_BUDGET if replay.closure_partial else EXIT_OK


def _cmd_verify_lucas(cfg: RunConfig) -> int:
    moduli = [int(x) for x in cfg.moduli.split(",") if x.strip()]
    mismatches = []
    for q in moduli:
        for alpha in range(cfg.max_alpha + 1):
            for beta in range(alpha + 1):
                got = params.lucas_binom_mod(alpha, beta, q)
                want = math.comb(alpha, beta) % q
                if got != want:
                    mismatches.append({"alpha": alpha, "beta": beta, "q": q})
    payload = {
        "max_alpha": cfg.max_alpha,
        "moduli": moduli,
        "checked": sum((cfg.max_alpha + 1) * (cfg.max_alpha + 2) // 2 for _ in moduli),
        "mismatches": mismatches,
    }
    _emit(cfg, _json(payload))
    return EXIT_VERIFY if mismatches else EXIT_OK


def _cmd_subgroup_gens(cfg: RunConfig) -> int:
    gens = words.schreier_generators(cfg.m)
    _emit(cfg, _json(gens.to_json()))
    return EXIT_OK


def _cmd_export_dot(cfg: RunConfig) -> int:
    spec, _ = _spec_or_unguaranteed(cfg)
    tuple_spec = spec or GraphSpec(cfg.n, cfg.l, cfg.a, cfg.b, "dim2")
    X, Y = cayley.spec_generators(tuple_spec, cfg.p)
    _emit(cfg, cayley.export_dot([X, Y], memory_budget=cfg.memory_budget))
    return EXIT_OK


def _add_spec_args(sp, with_l=True):
    sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    if with_l:
        sp.add_argument("--l", type=int, default=1, help="generator power")
    sp.add_argument("--a", type=int, required=True, help="superdiagonal value")
    sp.add_argument("--b", type=int, required=True, help="subdiagonal value")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--memory-budget", type=int, default=None, help="bytes")
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--timings", action="store_true", help="emit real wall times")
    common.add_argument("-o", "--output", default=None, help="write to file")
    common.add_argument("--format", dest="fmt", default=None, choices=["json", "csv", "text", "dot"])

    ap = argparse.ArgumentParser(prog="girthlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", parents=[common])
    _add_spec_args(sp)

    sp = sub.add_parser("construct", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--p", type=int, default=None, help="also reduce mod this modulus")

    for name in ("girth", "diameter"):
        sp = sub.add_parser(name, parents=[common])
        _add_spec_args(sp)
        sp.add_argument("--p", type=int, required=True, help="modulus")

    sp = sub.add_parser("dg-table", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--primes", required=True, help="range lo..hi or comma list")
    sp.add_argument("--skip-unit-residues", action="store_true")

    sp = sub.add_parser("bound", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("spectral", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order-limit", type=int, default=2_000_000)

    vp = sub.add_parser("verify")
    vsub = vp.add_subparsers(dest="vcmd", required=True)

    sp = vsub.add_parser("freeness", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--word-budget", type=int, default=words.DEFAULT_WORD_BUDGET)

    sp = vsub.add_parser("generation", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--p", type=int, required=True)

    rp = vsub.add_parser("recipe")
    rsub = rp.add_subparsers(dest="rcmd", required=True)
    sp = rsub.add_parser("sl3", parents=[common])
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp = rsub.add_parser("qt", parents=[common])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)

    sp = vsub.add_parser("lucas", parents=[common])
    sp.add_argument("--max-alpha", type=int, default=200)
    sp.add_argument("--moduli", default="2,3,5,7")

    sp = sub.add_parser("subgroup-gens", parents=[common])
    sp.add_argument("--m", type=int, required=True, help="subgroup index")

    sp = sub.add_parser("export-dot", parents=[common])
    _add_spec_args(sp)
    sp.add_argument("--p", type=int, required=True)
    return ap


_VALID_FORMATS = {
    "construct": {"json", "text"},
    "dg-table": {"csv", "json"},
    "export-dot": {"dot"},
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cmd = args.cmd
    if cmd == "verify":
        cmd = f"verify-{args.vcmd}"
        if args.vcmd == "recipe":
            cmd = f"verify-recipe-{args.rcmd}"
    fmt = getattr(args, "fmt", None)
    if fmt is None:
        fmt = {"dg-table": "csv", "export-dot": "dot"}.get(cmd, "json")
    elif fmt not in _VALID_FORMATS.get(cmd, {"json"}):
        raise ParameterError(f"format {fmt!r} is not valid for {cmd}")
    mem = getattr(args, "memory_budget", None)
    return RunConfig(
        subcommand=cmd,
        n=getattr(args, "n", None),
        l=getattr(args, "l", None),
        a=getattr(args, "a", None),
        b=getattr(args, "b", None),
        p=getattr(args, "p", None),
        primes=getattr(args, "primes", None),
        q=getattr(args, "q", None),
        t=getattr(args, "t", None),
        m=getattr(args, "m", None),
        max_length=getattr(args, "max_length", None),
        max_alpha=getattr(args, "max_alpha", 200),
        moduli=getattr(args, "moduli", "2,3,5,7"),
        word_budget=getattr(args, "word_budget", words.DEFAULT_WORD_BUDGET),
        order_limit=getattr(args, "order_limit", 2_000_000),
        memory_budget=mem if mem is not None else default_memory_budget(),
        threads=getattr(args, "threads", 1),
        seed=getattr(args, "seed", 0),
        fmt=fmt,
        output=getattr(args, "output", None),
        timings=getattr(args, "timings", False),
        skip_unit_residues=getattr(args, "skip_unit_residues", False),
    )


_HANDLERS = {
    "validate": _cmd_validate,
    "construct": _cmd_construct,
    "girth": _cmd_graph_stats,
    "diameter": _cmd_graph_stats,
    "dg-table": _cmd_dg_table,
    "bound": _cmd_bound,
    "spectral": _cmd_spectral,
    "verify-freeness": _cmd_verify_freeness,
    "verify-generation": _cmd_verify_generation,
    "verify-recipe-sl3": _cmd_verify_recipe,
    "verify-recipe-qt": _cmd_verify_recipe,
    "verify-lucas": _cmd_verify_lucas,
    "subgroup-gens": _cmd_subgroup_gens,
    "export-dot": _cmd_export_dot,
}


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map failures to documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARAM
    cfg = None
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except BudgetExceededError as exc:
        _emit(
            cfg,
            _json(
                {
                    "partial": True,
                    "depth_reached": exc.depth_reached,
                    "order_so_far": exc.order_so_far,
                    "error": str(exc),
                }
            ),
        )
        return EXIT_BUDGET
    except RecipeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ParameterError, DegenerateSpecError, modmat.NonInvertibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
