"""Command-line frontend: construction, verification, and report emission.

One subcommand per capability keeps the acceptance suite scriptable:

    validate, construct, girth, diameter, dg-table, bound, spectral,
    verify freeness | generation | recipe (sl3 | qt) | lucas,
    subgroup-gens, export-dot

Each command takes `-o FILE` and only the other options its handler reads:
`--memory-budget` on the commands that build a graph (girth, diameter,
dg-table, spectral, verify generation, verify recipe, export-dot),
`--timings` on girth, diameter and dg-table, `--format` on construct
(json | text) and dg-table (csv | json), and `--threads`, which has no
effect, on verify freeness.  Any other option is unrecognized: exit 1.  No
option is matched by a prefix: `dg-table --p 61` does not read `--primes`.

Exit codes: 0 success, 1 parameter error, 2 budget exhaustion with partial
results written, 3 verification failure (a claim check that did not hold).
All output is deterministic for a fixed configuration; wall-clock timings
are zeroed unless --timings is passed, so reruns are byte-identical.

Both output formats are encoded in this module: JSON, with schema_version
3 (version 3 added the spectral report's `modules`), and the dg-table CSV.
A report about a tuple carries the tuple's GraphSpec as its "spec" block,
with one key set for every tuple: outside validate's domain the regime, q
and t are null and the guarantees and alternative_q empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import cayley, modmat, params, spectral, words
from .cayley import BudgetExceededError, DegenerateSpecError
from .exactmat import ParameterError, Word, _Square, generator_pair, magic_pair
from .modmat import is_prime
from .params import GraphSpec
from .words import RecipeError

SCHEMA_VERSION = 3
ENV_MEMORY_BUDGET = "GIRTHLAB_MEMORY_BUDGET"

EXIT_OK = 0
EXIT_PARAM = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _memory_budget(flag: Optional[int]) -> int:
    """`--memory-budget` when given, else GIRTHLAB_MEMORY_BUDGET when set,
    else the library default.  Each must be a positive integer (bytes)."""
    if flag is not None:
        if flag <= 0:
            raise ParameterError(
                f"--memory-budget must be a positive integer (bytes), got {flag}"
            )
        return flag
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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"not an integer: {text!r}") from None


def prime_iter(
    selector: str,
    a: Optional[int] = None,
    b: Optional[int] = None,
    *,
    skip_unit_residues: bool = False,
) -> List[int]:
    """Deterministic ascending primes from a range or explicit list.

    Ranges ("lo..hi", inclusive) are filtered by the degenerate congruences
    when a, b are given: p dividing a or b is skipped, and optionally p with
    a or b congruent to 1.  Explicit lists are not filtered (per-prime
    failures surface in the report rows instead), but a repeated prime is
    kept once, so that each modulus gets one row.
    """
    sel = selector.strip()
    explicit = ".." not in sel
    if explicit:
        values = [_int(x) for x in sel.split(",") if x.strip()]
    else:
        lo_s, hi_s = sel.split("..", 1)
        lo, hi = _int(lo_s), _int(hi_s)
        if lo < 2 or hi < 2:
            raise ParameterError(f"range bounds must be >= 2, got {sel!r}")
        values = range(lo, hi + 1)
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
    out = sorted(set(out))
    if not out:
        print("warning: prime selection is empty", file=sys.stderr)
    return out


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fields(report) -> dict:
    """A dataclass's declared fields by name; TypeError for anything else."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _plain(value):
    """What `json` cannot encode itself, as what it can.  Matrices and words
    are dataclasses too, so they are tested first."""
    if isinstance(value, _Square):
        return value.entries
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, Fraction):
        return float(value)
    return _fields(value)


def _json(report) -> str:
    """A report (a dataclass) or a dict as JSON, with the schema version; a
    report's keys, also nested ones, are its field names."""
    payload = report if isinstance(report, dict) else _fields(report)
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"


def _csv(rows: Sequence[cayley.CayleyStats]) -> str:
    """dg-table rows as CSV, in the fixed documented column order.  A row with
    an error keeps its modulus and leaves the other columns empty."""
    out = ["p,order,full,girth,diameter,ratio,seconds,peak_bytes"]
    for r in rows:
        if r.error is not None:
            out.append(f"{r.m},,,,,,,")
            continue
        full = "" if r.generated_full is None else str(r.generated_full).lower()
        ratio = "" if r.dg_ratio is None else f"{float(r.dg_ratio):.6f}"
        out.append(
            f"{r.m},{r.order},{full},{r.girth},{r.diameter},{ratio},"
            f"{r.seconds:.3f},{r.peak_bytes}"
        )
    return "\n".join(out) + "\n"


def _timed(args: argparse.Namespace, row: cayley.CayleyStats) -> cayley.CayleyStats:
    """The row with its seconds zeroed unless --timings: wall time is the one
    field that would break byte-identical reruns."""
    return row if args.timings else dataclasses.replace(row, seconds=0.0)


def _spec_or_unguaranteed(args: argparse.Namespace) -> GraphSpec:
    """The tuple's `GraphSpec`, which is also its JSON block.  A tuple outside
    `validate`'s domain (a or b < 2, l < 1) is measured with no regime and no
    guarantees."""
    try:
        return params.validate(args.n, args.l, args.a, args.b)
    except ParameterError:
        return GraphSpec(args.n, args.l, args.a, args.b, regime=None)


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = params.validate(args.n, args.l, args.a, args.b)
    _emit(args, _json(spec))
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    A, B = magic_pair(args.n, args.a, args.b)
    X, Y = generator_pair(args.n, args.l, args.a, args.b)
    mats = {"A": A, "B": B, "X=A^l": X, "Y=B^l": Y}
    if args.p is not None:
        mats["X mod m"] = modmat.reduce(X, args.p)
        mats["Y mod m"] = modmat.reduce(Y, args.p)
    if args.fmt == "text":
        lines = []
        for key, M in mats.items():
            lines.append(f"{key}:")
            lines += ["  " + " ".join(str(x) for x in row) for row in M.entries]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {"n": args.n, "l": args.l, "a": args.a, "b": args.b, **mats}
        if args.p is not None:
            payload["modulus"] = args.p
        _emit(args, _json(payload))
    return EXIT_OK


def _cmd_graph_stats(args: argparse.Namespace) -> int:
    """Handler for both `girth` and `diameter`: one BFS yields the full row."""
    spec = _spec_or_unguaranteed(args)
    stats = cayley.cayley_stats(spec, args.p, memory_budget=args.memory_budget)
    _emit(args, _json({"spec": spec, **_fields(_timed(args, stats))}))
    return EXIT_OK


def _cmd_dg_table(args: argparse.Namespace) -> int:
    spec = _spec_or_unguaranteed(args)
    primes = prime_iter(
        args.primes, args.a, args.b, skip_unit_residues=args.skip_unit_residues
    )
    rows = cayley.dg_table(spec, primes, memory_budget=args.memory_budget)
    for r in rows:
        if r.error:
            print(f"warning: p={r.m}: {r.error}", file=sys.stderr)
    rows = [_timed(args, r) for r in rows]
    if args.fmt == "json":
        _emit(args, _json({"spec": spec, "rows": rows}))
    else:
        _emit(args, _csv(rows))
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    spec = _spec_or_unguaranteed(args)
    gb = spectral.girth_lower_bound(spec, args.p)
    _emit(args, _json(gb))
    return EXIT_OK


def _cmd_spectral(args: argparse.Namespace) -> int:
    spec = _spec_or_unguaranteed(args)
    X, Y = cayley.spec_generators(spec, args.p)
    report = spectral.second_eigenvalue(
        [X, Y], seed=args.seed, memory_budget=args.memory_budget
    )
    _emit(args, _json({"spec": spec, "p": args.p, **_fields(report)}))
    return EXIT_OK


def _cmd_verify_freeness(args: argparse.Namespace) -> int:
    if args.word_budget < 0:
        raise ParameterError(f"--word-budget must be >= 0 (words), got {args.word_budget}")
    spec = _spec_or_unguaranteed(args)
    report = words.freeness_scan(
        args.n,
        args.l,
        args.a,
        args.b,
        args.max_length,
        budget=args.word_budget,
    )
    guaranteed = spec.has(params.FREENESS)
    payload = {
        "spec": spec,
        "guaranteed_free": guaranteed,
        **_fields(report),
    }
    _emit(args, _json(payload))
    if report.violations and guaranteed:
        return EXIT_VERIFY
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK


def _asserted_generation_prime(spec: GraphSpec, p: int) -> bool:
    """Is full generation at p an asserted claim (vs merely reported)?

    dim2 asserts every prime (one dividing a or b never gets here:
    spec_generators has raised DegenerateSpecError); dim3 and the general
    regime assert only p = q, which is 3 for dim3.  Larger primes sit below
    unknown effective constants and are reported, never asserted; a
    composite modulus is never asserted.
    """
    return (
        spec.has(params.GENERATION)
        and is_prime(p)
        and (spec.regime == "dim2" or p == spec.q)
    )


def _cmd_verify_generation(args: argparse.Namespace) -> int:
    spec = _spec_or_unguaranteed(args)
    X, Y = cayley.spec_generators(spec, args.p)
    order = cayley.closure([X, Y], memory_budget=args.memory_budget)
    expected = modmat.group_order_sl(args.n, args.p) if is_prime(args.p) else None
    full = None if expected is None else order == expected
    asserted = _asserted_generation_prime(spec, args.p)
    payload = {
        "spec": spec,
        "p": args.p,
        "order": order,
        "expected_order": expected,
        "generated_full": full,
        "asserted": asserted,
    }
    _emit(args, _json(payload))
    if asserted and full is False:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify_recipe(args: argparse.Namespace) -> int:
    if args.rcmd == "sl3":
        replay = words.replay_recipe_sl3_mod3(
            args.a, args.b, memory_budget=args.memory_budget
        )
    else:
        replay = words.replay_recipe_qt(
            args.q, args.t, memory_budget=args.memory_budget
        )
    _emit(args, _json(replay))
    return EXIT_BUDGET if replay.closure_partial else EXIT_OK


def _cmd_verify_lucas(args: argparse.Namespace) -> int:
    if args.max_alpha < 0:
        raise ParameterError(f"--max-alpha must be >= 0, got {args.max_alpha}")
    moduli = [_int(x) for x in args.moduli.split(",") if x.strip()]
    mismatches = []
    for q in moduli:
        for alpha in range(args.max_alpha + 1):
            for beta in range(alpha + 1):
                got = params.lucas_binom_mod(alpha, beta, q)
                want = math.comb(alpha, beta) % q
                if got != want:
                    mismatches.append({"alpha": alpha, "beta": beta, "q": q})
    payload = {
        "max_alpha": args.max_alpha,
        "moduli": moduli,
        "checked": sum((args.max_alpha + 1) * (args.max_alpha + 2) // 2 for _ in moduli),
        "mismatches": mismatches,
    }
    _emit(args, _json(payload))
    return EXIT_VERIFY if mismatches else EXIT_OK


def _cmd_subgroup_gens(args: argparse.Namespace) -> int:
    gens = words.schreier_generators(args.m)
    _emit(args, _json(gens))
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    spec = _spec_or_unguaranteed(args)
    X, Y = cayley.spec_generators(spec, args.p)
    _emit(args, cayley.export_dot([X, Y], memory_budget=args.memory_budget))
    return EXIT_OK


def _add_spec_args(sp):
    sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    sp.add_argument("--l", type=int, default=1, help="generator power")
    sp.add_argument("--a", type=int, required=True, help="superdiagonal value")
    sp.add_argument("--b", type=int, required=True, help="subdiagonal value")


def _leaf(subs, name, handler, *, spec=True, budget=False, timings=False, formats=()):
    """A command that runs `handler`, with `-o` and only the options it reads.

    `formats` lists the output formats the command can choose, its default
    first.
    """
    sp = subs.add_parser(name, allow_abbrev=False)
    sp.set_defaults(handler=handler)
    if spec:
        _add_spec_args(sp)
    sp.add_argument("-o", "--output", default=None, help="write to file")
    if budget:
        sp.add_argument("--memory-budget", type=int, default=None, help="bytes")
    if timings:
        sp.add_argument("--timings", action="store_true", help="emit real wall times")
    if formats:
        sp.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    return sp


def build_parser() -> argparse.ArgumentParser:
    # no parser matches an option by a prefix: which prefixes would parse
    # depends on each command's option set, so a script could rely on one
    # silently
    # the description is this module's docstring, with its line breaks kept
    ap = argparse.ArgumentParser(
        prog="girthlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    _leaf(sub, "validate", _cmd_validate)

    sp = _leaf(sub, "construct", _cmd_construct, formats=("json", "text"))
    sp.add_argument("--p", type=int, default=None, help="also reduce mod this modulus")

    for name in ("girth", "diameter"):
        sp = _leaf(sub, name, _cmd_graph_stats, budget=True, timings=True)
        sp.add_argument("--p", type=int, required=True, help="modulus")

    sp = _leaf(
        sub, "dg-table", _cmd_dg_table, budget=True, timings=True, formats=("csv", "json")
    )
    sp.add_argument("--primes", required=True, help="range lo..hi or comma list")
    sp.add_argument("--skip-unit-residues", action="store_true")

    sp = _leaf(sub, "bound", _cmd_bound)
    sp.add_argument("--p", type=int, required=True)

    sp = _leaf(sub, "spectral", _cmd_spectral, budget=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="start vector of the eigen-solver")

    verify = sub.add_parser("verify", allow_abbrev=False)
    vsub = verify.add_subparsers(dest="vcmd", required=True)

    sp = _leaf(vsub, "freeness", _cmd_verify_freeness)
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--word-budget", type=int, default=words.DEFAULT_WORD_BUDGET)
    sp.add_argument("--threads", type=int, help="accepted for compatibility; no effect")

    sp = _leaf(vsub, "generation", _cmd_verify_generation, budget=True)
    sp.add_argument("--p", type=int, required=True)

    recipe = vsub.add_parser("recipe", allow_abbrev=False)
    rsub = recipe.add_subparsers(dest="rcmd", required=True)
    sp = _leaf(rsub, "sl3", _cmd_verify_recipe, spec=False, budget=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp = _leaf(rsub, "qt", _cmd_verify_recipe, spec=False, budget=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)

    sp = _leaf(vsub, "lucas", _cmd_verify_lucas, spec=False)
    sp.add_argument("--max-alpha", type=int, default=200)
    sp.add_argument("--moduli", default="2,3,5,7")

    sp = _leaf(sub, "subgroup-gens", _cmd_subgroup_gens, spec=False)
    sp.add_argument("--m", type=int, required=True, help="subgroup index")

    sp = _leaf(sub, "export-dot", _cmd_export_dot, budget=True)
    sp.add_argument("--p", type=int, required=True)
    return ap


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map failures to documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARAM
    try:
        if "memory_budget" in vars(args):
            args.memory_budget = _memory_budget(args.memory_budget)
        return args.handler(args)
    except BudgetExceededError as exc:
        _emit(
            args,
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
