"""Exact Cayley-graph computations: order, girth, diameter via BFS.

One breadth-first sweep from the identity produces all three statistics.
Girth uses the non-backtracking collision rule: at the first level where a
frontier vertex touches an already-placed vertex other than its parent, the
two path depths sum to the girth (vertex-transitivity makes the cycle
through the identity shortest overall).  Since right multiplication by a
fixed generator is injective, targets within one (chunk, generator) batch
are automatically distinct; the only collisions are genuine ones.

Two storage strategies: a dense distance table indexed by element code when
m^(n^2) fits the memory budget (vectorized, fast), and a plain dictionary
otherwise (arbitrary moduli, slow).  Both are deterministic.

The dense table spends one byte per code and stores depth mod 3 (0xFF marks
an unplaced code), after Kunkle & Cooperman, "Twenty-Six Moves Suffice for
Rubik's Cube" (ISSAC 2007): a placed neighbour of a depth-d vertex has depth
d - 1, d or d + 1, three distinct residues, so the collision rule stays
exact and depth has no limit.  Generators act on codes through row tables
(row_action): each row of an element is looked up in a table of the m^n row
vectors, so a step is n small gathers with no decode, product or encode.
The same kernel builds the spectral neighbour lists and the DOT edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import modmat
from .exactmat import ParameterError, magic_pair, power_closed_form
from .modmat import ModMatrix
from .params import GraphSpec

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes
_SENT = np.uint8(0xFF)
_CHUNK = 1 << 19
_DOT_LIMIT = 10_000

CSV_COLUMNS = ("p", "order", "full", "girth", "diameter", "ratio", "seconds", "peak_bytes")


class DegenerateSpecError(ValueError):
    """Generator set collapses (identity image or equal images)."""


class BudgetExceededError(RuntimeError):
    """BFS ran out of its memory budget; carries the partial result."""

    def __init__(self, depth_reached: int, order_so_far: int, message: str = ""):
        self.depth_reached = depth_reached
        self.order_so_far = order_so_far
        super().__init__(
            message
            or f"memory budget exceeded at depth {depth_reached} "
            f"after {order_so_far} elements"
        )


@dataclass(frozen=True)
class BfsResult:
    order: int
    diameter: Optional[int]
    girth: Optional[int]  # None when tracking was off or no cycle exists
    degree: int
    max_frontier: int
    peak_bytes: int
    codes: Optional[np.ndarray] = None  # sorted element codes, when collected


@dataclass(frozen=True)
class CayleyStats:
    n: int
    l: int
    a: int
    b: int
    m: int
    order: Optional[int] = None
    generated_full: Optional[bool] = None
    girth: Optional[int] = None
    diameter: Optional[int] = None
    dg_ratio: Optional[Fraction] = None
    degree: Optional[int] = None
    seconds: float = 0.0
    peak_bytes: int = 0
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "l": self.l,
            "a": self.a,
            "b": self.b,
            "m": self.m,
            "order": self.order,
            "generated_full": self.generated_full,
            "girth": self.girth,
            "diameter": self.diameter,
            "dg_ratio": None if self.dg_ratio is None else float(self.dg_ratio),
            "degree": self.degree,
            "seconds": self.seconds,
            "peak_bytes": self.peak_bytes,
            "error": self.error,
        }


def symmetrize(generators: Sequence[ModMatrix]) -> List[ModMatrix]:
    """Generators plus inverses, deduplicated, in first-seen order."""
    out: List[ModMatrix] = []
    seen = set()
    for g in generators:
        for h in (g, modmat.inverse(g)):
            key = h.entries
            if key not in seen:
                seen.add(key)
                out.append(h)
    return out


def row_action(n: int, m: int, gens: Sequence[ModMatrix]):
    """Right multiplication by every generator, acting on element codes.

    Row i of an element M is the base-(m^n) digit i of its code, and row i of
    M g is row_i(M) g.  So for each generator a table over the m^n row codes,
    T_g[r] = code of the row vector r g, gives the code of M g as
    sum_i T_g[row_i(M)] * m^(n i), bit-identical to modmat.encode(M @ g).
    The tables are stored pre-scaled by m^(n i) with the generators side by
    side, so one action is n gathers of len(gens)-wide rows, summed.
    Returns act(codes) -> int64 array of shape (len(codes), len(gens)) whose
    column j holds the codes of M g_j; codes must lie below m^(n^2) <= 2^63.
    """
    if m ** (n * n) > 2**63:
        raise ParameterError(f"modulus {m} too large for 63-bit element codes at n={n}")
    base = m**n
    r = np.arange(base, dtype=np.int64)
    digits = np.stack([r // m**x % m for x in range(n)], axis=1)
    weights = m ** np.arange(n, dtype=np.int64)
    row_codes = np.array(
        [(digits @ np.array(g.entries, dtype=np.int64)) % m @ weights for g in gens],
        dtype=np.int64,
    ).reshape(len(gens), base)
    scale = base ** np.arange(n, dtype=np.int64)
    tables = row_codes.T[None, :, :] * scale[:, None, None]  # (row i, row code, generator)

    def act(codes) -> np.ndarray:
        high = np.asarray(codes, dtype=np.int64)
        out = np.zeros((len(high), len(gens)), dtype=np.int64)
        for i in range(n - 1):
            high, row = np.divmod(high, base)
            out += np.take(tables[i], row, axis=0)
        out += np.take(tables[n - 1], high, axis=0)
        return out

    return act


def _dense_peak_bytes(size: int, k: int, max_frontier: int) -> int:
    # distance table (1 byte per code) + frontier codes and arriving
    # generators (9 bytes per element) + the int64 target block of one chunk
    return size + 9 * max_frontier + 8 * k * min(max_frontier, _CHUNK)


def _bfs_dense(
    gens: List[ModMatrix],
    *,
    want_girth: bool,
    girth_only: bool,
    collect: bool,
) -> BfsResult:
    n, m = gens[0].n, gens[0].m
    size = m ** (n * n)
    k = len(gens)
    act = row_action(n, m, gens)
    inv_idx = np.empty(k, dtype=np.uint8)
    for i, g in enumerate(gens):
        gi = modmat.inverse(g).entries
        inv_idx[i] = next(j for j, h in enumerate(gens) if h.entries == gi)

    # dist holds depth mod 3: a placed neighbour of a depth-d vertex has depth
    # d - 1, d or d + 1, and those three residues are distinct
    dist = np.full(size, _SENT, dtype=np.uint8)
    id_code = modmat.encode(ModMatrix.identity(n, m))
    dist[id_code] = 0
    frontier = np.array([id_code], dtype=np.int64)
    fgen = np.full(1, 0xFF, dtype=np.uint8)  # arriving generator; 0xFF = root
    order = 1
    max_frontier = 1
    d = 0
    girth: Optional[int] = None
    while len(frontier):
        below, here, above = (d - 1) % 3, d % 3, (d + 1) % 3
        nxt_codes: List[np.ndarray] = []
        nxt_gens: List[np.ndarray] = []
        cands: List[int] = []
        track = want_girth and girth is None
        for s in range(0, len(frontier), _CHUNK):
            codes = frontier[s : s + _CHUNK]
            tgts = act(codes).T
            if track:
                arr = fgen[s : s + _CHUNK]
                root = arr == 0xFF
                # parent vertex = v * (arriving generator)^-1
                par = tgts[inv_idx[np.minimum(arr, k - 1)], np.arange(len(codes))]
                for j in range(k):
                    t = tgts[j]
                    valid = (t != par) | root
                    tv = t[valid]
                    dv = dist[tv]
                    if d > 0 and bool((dv == below).any()):
                        cands.append(2 * d)
                    if bool((dv == here).any()):
                        cands.append(2 * d + 1)
                    if bool((dv == above).any()):
                        cands.append(2 * d + 2)
                    new = tv[dv == _SENT]
                    if len(new):
                        dist[new] = above
                        nxt_codes.append(new)
                        nxt_gens.append(np.full(len(new), j, dtype=np.uint8))
            else:
                for j in range(k):
                    t = tgts[j]
                    new = t[dist[t] == _SENT]
                    if len(new):
                        dist[new] = above
                        nxt_codes.append(new)
                        if want_girth:
                            nxt_gens.append(np.full(len(new), j, dtype=np.uint8))
        if track and cands:
            girth = min(cands)
            if girth_only:
                return BfsResult(
                    order, None, girth, k, max_frontier,
                    _dense_peak_bytes(size, k, max_frontier),
                )
        if nxt_codes:
            frontier = np.concatenate(nxt_codes)
            fgen = np.concatenate(nxt_gens) if want_girth else fgen[:0]
        else:
            frontier = frontier[:0]
        order += len(frontier)
        max_frontier = max(max_frontier, len(frontier))
        if len(frontier):
            d += 1
    peak = _dense_peak_bytes(size, k, max_frontier)
    codes_out = np.flatnonzero(dist != _SENT).astype(np.uint64) if collect else None
    return BfsResult(order, d, girth, k, max_frontier, peak, codes_out)


def _bfs_sparse(
    gens: List[ModMatrix],
    *,
    want_girth: bool,
    girth_only: bool,
    collect: bool,
    memory_budget: int,
) -> BfsResult:
    n, m = gens[0].n, gens[0].m
    k = len(gens)
    gen_rows = [g.entries for g in gens]
    inv_of = []
    for g in gens:
        gi = modmat.inverse(g).entries
        inv_of.append(next(j for j, h in enumerate(gens) if h.entries == gi))

    def mul(rows, g):
        return tuple(
            tuple(sum(rows[i][x] * g[x][j] for x in range(n)) % m for j in range(n))
            for i in range(n)
        )

    ident = ModMatrix.identity(n, m).entries
    dist = {ident: 0}
    frontier: List[Tuple[tuple, int]] = [(ident, -1)]
    order = 1
    max_frontier = 1
    d = 0
    girth: Optional[int] = None
    # rough per-element footprint of the dict path, for the budget check
    per_elt = 120 + 8 * n * n
    while frontier:
        if order * per_elt > memory_budget:
            raise BudgetExceededError(d, order)
        nxt: List[Tuple[tuple, int]] = []
        cands: List[int] = []
        track = want_girth and girth is None
        for rows, arr in frontier:
            par = mul(rows, gen_rows[inv_of[arr]]) if (track and arr >= 0) else None
            for j in range(k):
                t = mul(rows, gen_rows[j])
                if track and t == par:
                    continue
                dv = dist.get(t)
                if dv is None:
                    dist[t] = d + 1
                    nxt.append((t, j))
                elif track:
                    if dv == d - 1 and d > 0:
                        cands.append(2 * d)
                    elif dv == d:
                        cands.append(2 * d + 1)
                    elif dv == d + 1:
                        cands.append(2 * d + 2)
        if track and cands:
            girth = min(cands)
            if girth_only:
                return BfsResult(order, None, girth, k, max_frontier, order * per_elt)
        frontier = nxt
        order += len(nxt)
        max_frontier = max(max_frontier, len(nxt))
        if nxt:
            d += 1
    codes_out = None
    if collect:
        codes_out = sorted(modmat.encode(ModMatrix(n, m, rows)) for rows in dist)
    return BfsResult(order, d, girth, k, max_frontier, order * per_elt, codes_out)


def bfs(
    generators: Sequence[ModMatrix],
    *,
    want_girth: bool = False,
    girth_only: bool = False,
    collect: bool = False,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> BfsResult:
    """Breadth-first sweep of <generators> from the identity.

    The generator list is symmetrized and deduplicated first.  With
    want_girth, identity generators are rejected (a loop is not a cycle of
    the simple graph); without it they are simply absorbed.
    """
    if not generators:
        raise ParameterError("need at least one generator")
    n, m = generators[0].n, generators[0].m
    for g in generators:
        if g.n != n or g.m != m:
            raise ParameterError("mixed dimensions or moduli in generator set")
    gens = symmetrize(generators)
    if want_girth:
        for g in gens:
            if g.is_identity():
                raise DegenerateSpecError("identity generator; girth undefined")
    else:
        gens = [g for g in gens if not g.is_identity()] or [ModMatrix.identity(n, m)]
    size = m ** (n * n)
    if size <= 2**63 and 3 * size <= memory_budget:
        return _bfs_dense(
            gens,
            want_girth=want_girth,
            girth_only=girth_only,
            collect=collect,
        )
    return _bfs_sparse(
        gens,
        want_girth=want_girth,
        girth_only=girth_only,
        collect=collect,
        memory_budget=memory_budget,
    )


def closure(
    generators: Sequence[ModMatrix], *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> int:
    """Order of the subgroup generated mod m (BFS count)."""
    return bfs(generators, memory_budget=memory_budget).order


def girth(
    generators: Sequence[ModMatrix], *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> Optional[int]:
    """Length of the shortest cycle through the identity (None if acyclic)."""
    return bfs(
        generators, want_girth=True, girth_only=True, memory_budget=memory_budget
    ).girth


def diameter(
    generators: Sequence[ModMatrix], *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> int:
    """Eccentricity of the identity, which is the diameter by transitivity."""
    return bfs(generators, memory_budget=memory_budget).diameter


def spec_generators(spec: GraphSpec, m: int) -> Tuple[ModMatrix, ModMatrix]:
    """The two generator images X = A^l mod m, Y = B^l mod m for a spec.

    Rejects the degenerate reductions: an identity image (the excluded
    congruence a, b = 0 mod p) and equal images X = Y.
    """
    A, B = magic_pair(spec.n, spec.a, spec.b, allow_small=True)
    X = modmat.reduce(power_closed_form(A, spec.l), m)
    Y = modmat.reduce(power_closed_form(B, spec.l), m)
    if X.is_identity() or Y.is_identity():
        raise DegenerateSpecError(
            f"generator reduces to identity mod {m}; "
            "the guarantees exclude a,b = 0 (mod p)"
        )
    if X.entries == Y.entries:
        raise DegenerateSpecError(f"A^l = B^l mod {m}; degenerate generator set")
    return X, Y


def cayley_stats(
    spec: GraphSpec,
    m: int,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    propagate_errors: bool = False,
) -> CayleyStats:
    """Order, girth, diameter, and ratio for one modulus, from a single BFS.

    Failures land in the error field by default (table rows never abort);
    single-graph callers pass propagate_errors for the real exception.
    """
    t0 = time.perf_counter()
    try:
        X, Y = spec_generators(spec, m)
        res = bfs([X, Y], want_girth=True, memory_budget=memory_budget)
    except (DegenerateSpecError, BudgetExceededError) as exc:
        if propagate_errors:
            raise
        return CayleyStats(spec.n, spec.l, spec.a, spec.b, m, error=str(exc))
    full = None
    if modmat.is_prime(m):
        full = res.order == modmat.group_order_sl(spec.n, m)
    ratio = None
    if res.girth and res.diameter:
        ratio = Fraction(res.diameter, res.girth)
    return CayleyStats(
        spec.n,
        spec.l,
        spec.a,
        spec.b,
        m,
        order=res.order,
        generated_full=full,
        girth=res.girth,
        diameter=res.diameter,
        dg_ratio=ratio,
        degree=res.degree,
        seconds=time.perf_counter() - t0,
        peak_bytes=res.peak_bytes,
    )


def dg_table(
    spec: GraphSpec,
    primes: Sequence[int],
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> List[CayleyStats]:
    """One stats row per modulus, ascending; per-row failures never abort."""
    return [cayley_stats(spec, p, memory_budget=memory_budget) for p in sorted(primes)]


def stats_csv(rows: Sequence[CayleyStats], *, timings: bool = False) -> str:
    """Render stats rows as CSV with the fixed documented column order.

    seconds is zeroed unless timings is requested: wall time is the one
    column that would break byte-identical reruns.
    """
    out = [",".join(CSV_COLUMNS)]
    for r in rows:
        if r.error is not None:
            out.append(f"{r.m},,,,,,,")
            continue
        full = "" if r.generated_full is None else str(r.generated_full).lower()
        ratio = "" if r.dg_ratio is None else f"{float(r.dg_ratio):.6f}"
        secs = f"{r.seconds:.3f}" if timings else "0.000"
        out.append(
            f"{r.m},{r.order},{full},{r.girth},{r.diameter},{ratio},{secs},{r.peak_bytes}"
        )
    return "\n".join(out) + "\n"


def export_dot(
    generators: Sequence[ModMatrix],
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> str:
    """DOT text of the simple Cayley graph; vertex labels are decimal codes."""
    res = bfs(generators, collect=True, memory_budget=memory_budget)
    if res.order > _DOT_LIMIT:
        raise ParameterError(
            f"graph has {res.order} vertices; DOT export is capped at {_DOT_LIMIT}"
        )
    n, m = generators[0].n, generators[0].m
    gens = [g for g in symmetrize(generators) if not g.is_identity()]
    act = row_action(n, m, gens)
    codes = np.asarray(res.codes, dtype=np.int64)
    tgts = act(codes)
    # each edge {M, M g} once, as (smaller code, larger code)
    col = codes[:, None]
    ends = np.stack([np.minimum(col, tgts), np.maximum(col, tgts)], axis=-1)
    edges = np.unique(ends.reshape(-1, 2), axis=0)
    lines = ["graph cayley {"]
    lines += [f'  v{code} [label="{code}"];' for code in codes.tolist()]
    lines += [f"  v{u} -- v{v};" for u, v in edges.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"
