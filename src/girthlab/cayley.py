"""Exact Cayley-graph computations: order, girth, diameter via BFS.

One breadth-first sweep from the identity produces all three statistics.
Girth uses a collision rule: at the first level d where a frontier vertex
touches a vertex of its own level (a cycle of length 2d + 1) or two
frontier vertices reach the same new vertex (2d + 2), that length is the
girth (vertex-transitivity makes the cycle through the identity shortest
overall).  Until then the ball is a tree, so each vertex of level d has
one neighbour in level d - 1, and the rule needs only the level sizes: a
cycle closes at level d exactly when the k |L_d| targets outnumber the
|L_d| parents (none at d = 0) and the |L_{d+1}| new vertices.  The cycle
is odd when a target of level d lies in level d, which each store answers
at that one level (hits).

One deterministic level loop (_bfs) does the sweep over the visited set
that bfs() builds for it: the level sizes, the memory budget and the
collision rule.  It holds no level: each visited set builds its own next
level, vectorized and a chunk at a time, and keeps what its hits reads
while the girth is tracked.  A girth-only search always takes frontier
search, whose ball is far smaller than the group; a full sweep takes the
table whenever its elements are ranked (_table_index) and 3 bytes per
index of the table, and the rank action's tables, fit the budget:

- _Table: one visited byte per index.  Since the rule reads level sizes, the
  table keeps no depth.  While the girth is tracked it keeps level d beside
  level d + 1, and answers hits by clearing level d for a moment and acting
  on it once more: once d closes, levels d - 1 to d + 1 are visited, so a
  target reads unvisited only if it lies in level d.  The
  index is the element's rank in SL_n(F_m), so the table serves n >= 2, a
  prime m and generators of determinant 1; every other full sweep (a
  composite modulus, a generator of determinant != 1, or n = 1) takes
  frontier search.  For n = 2 (_sl2_ranks) that is m^3 indices instead of
  m^4 codes, and the generators act through two tables over the m^2 row-0
  codes each.  For n >= 3 (_sln_ranks) it is m^(n^2-1) indices instead of
  m^(n^2): one byte per element of the 12,130,560 of SL_4(F_3) in 14,348,907
  bytes, not 43,046,721.  There the generators act on the top rows 0..n-2
  through cache-sized row tables (_top_action), and on the last row through
  a class table over the tops and a step table over (class, last row) pairs.
  Each level is closed in sorted order of its indices: row i of M g is
  row_i(M) g, and the top rows are the high digits of the ranks, so the
  targets of one generator from a sorted level fall into few contiguous
  stretches of the table, and the next level's lookups stay cache-local.  A
  level is acted on in chunks sized for the cache, not for the budget:
  _TARGET_BYTES of int64 targets (2^14 elements at degree 4).  The action's
  gathers make temporaries of the chunk's length, and the table is read at
  one generator column of targets at a time and the new indices written
  back, so all of these passes stay in cache.  It picks the unvisited
  targets with np.compress, a third of the cost of a boolean mask index on a
  chunk.  A level's indices are int32 while the index space is at most 2^31
  (_index_dtype) and int64 past it, so the pieces of the next level, their
  concatenation and the in-place sort in close take half the bytes.  The
  targets stay int64 and only the new ones are narrowed as they are kept:
  numpy gathers through int32 indices about 1.5 times slower.  codes()
  unranks the visited indices and sorts them.
  Near the end of a sweep a level is built bottom-up (Beamer, Asanovic and
  Patterson, "Direction-optimizing breadth-first search", SC 2012).  Once
  level d closes, an unvisited M has depth d + 1 or more, so each M g has
  depth d or more (g^(-1) is a generator too), and the visited ones lie in
  level d: M is in level d + 1 exactly when some M g is visited, which the
  byte table answers with no depth.  scan reads the table in _SCAN_BYTES
  blocks for unvisited indices, acts on them a chunk at a time and keeps
  those with a visited target, so level d + 1 comes out sorted; it marks
  them only once all are found, as a marked one would pull in its
  neighbours of level d + 2.  bottom_up takes scan when fewer used indices
  are unvisited than level d holds, so fewer elements are acted on:
  SL_4(F_3) scans levels 16 to 19.  The rule is also checked while level
  d + 1 is built top-down, on the indices kept so far: once it picks scan
  for the step after, and hits may not read level d + 1 (the girth is no
  longer tracked), the level's indices are dropped as they are found, never
  concatenated or sorted, and its size is read from the marks.  So the
  widest level of SL_4(F_3), level 15, which scan never reads, is never
  built.  The unused ranks read visited until codes(): their targets are
  unused too (dependent top rows stay dependent under g), so scan would
  never keep them, but it would act on them (2.2 M of the 14.3 M ranks of
  SL_4(F_3)).  Once nothing is left unvisited, the last scan returns the
  empty level without reading the table.
  A level of _SPLIT (2^20) elements or more is split in two halves, the
  upper one on a worker thread when the process may run on two CPUs
  (_halves): numpy releases the GIL in the gathers, compresses and
  scatters.  Top-down, each half acts on and visits its half of level d;
  two threads may both keep an index that each read unvisited before the
  other marked it, and close drops the repeats after its sort.  The count
  that drops a level which only scan follows adds both halves' kept
  indices, repeats included, so on two threads the switch to scan can come
  one level early; the levels stay the same.  scan gives each half of its
  blocks to one thread, which only reads the table until both join, so its
  level stays sorted and unrepeated.  On one CPU the whole level runs in
  the calling thread, as a narrower level does, and no output depends on
  the CPU count.
- _Levels: frontier search (Korf et al., "Frontier Search", J. ACM 52(5),
  2005), which keeps only the sorted codes of levels d - 1 and d while it
  builds d + 1, so a girth-only ball search costs memory in proportion to
  the ball, not to the code space.  It keeps one code per orbit of Sigma, a
  group of automorphisms that permute the generators (_symmetries), as
  Rokicki, Kociemba, Davidson and Dethridge reduced the Rubik's cube search
  by its symmetries ("The diameter of the Rubik's cube group is twenty",
  SIAM J. Discrete Math. 27(2), 2013).  Each map fixes the identity and
  carries edges to edges, so each sphere is a union of orbits: of order 4
  for the dim2 pairs (tau, conjugation by diag(1, -1), inverts both
  generators, and sigma(M) = D M^(-T) D^(-1) with D = diag((b/a)^i) sends X
  to Y^(-1) and Y to X^(-1)), of order 2 for the n = 3 pairs (sigma alone).
  The stored code is the least in its orbit (_Orbits.canon), and the orbit
  of a neighbour of M is the orbit of a neighbour of the stored code, so the
  targets of the stored codes, each replaced by its orbit's least code,
  stand for the targets of every element.  Levels and targets then take a
  quarter of the bytes at n = 2 and half at n = 3.  The level sizes count
  elements: each code stands for |Sigma| / |Stab| of them, and the few
  stabilized orbits (the identity, diagonal matrices, for n = 2 the
  [[x, y], [z, x]] with z = +-(b/a) y) are found as canon meets them, so
  advance returns the sum of the orbit sizes.  A collected search, whose neighbour map and DOT export need
  every code, and a generator set with no verified map take the trivial
  group.  The chunks of a level only gather their targets, canonicalized in
  place after each chunk's act; when the level closes, its targets are
  sorted once and a mask marks the first occurrence of each code.  Then the
  sorted levels d - 1 and d, which hold far fewer codes than the k |L_d|
  targets, probe the targets: each hit clears its code's mask, and what the
  mask keeps is level d + 1, copied once.  The probe of level d also
  answers hits: an edge inside level d maps to an edge from a stored code
  into level d.  The table's levels, each code replaced by its orbit's least
  and deduplicated, are the frontier's; both stores sort each level by its
  index.  Charged to the memory budget: the codes of levels d - 1 and d,
  the targets and the mask, and the largest of act's block scratch,
  canon's (the kernel's vectors and the images of one block), a probe and
  level d + 1 as it is copied out of the targets; not charged: the sort's
  temporaries.
  The generators and the maps of Sigma act through one kernel on element
  codes, decode, sum and encode (_code_action), which needs no table of m^n
  rows: _product_action gives it each generator's product plan, and
  _Orbits each map's plan, whose entries are digits or, for n = 3, 2 x 2
  minors, times a unit.  It reduces each entry e as e - (e // m) m, since
  numpy's int64 % is about 4.5 times slower than a floor division by a
  scalar, and it works in place, in blocks of _ACT_BLOCK codes whose digit
  arrays and two scratch vectors stay in cache.  advance allocates the
  level's gathered targets once, and each chunk's act writes its block of
  them where close sorts them, so no chunk's targets are copied again.  Its
  chunks stay at 2^19 elements: they touch no table, the gathered targets
  of the whole level are kept until close anyway, and the kernel's blocks,
  not the chunks, keep its arrays in cache.  Its codes stay int64, because
  they pass 2^31 at n = 2 for m > 215, and close keeps its boolean mask
  indexing, because np.compress there builds an 8-byte index for every
  kept element and raised the ball search's peak RSS without making it
  faster.

Codes are int64 in both, so the code space m^(n^2) must fit in 63 bits.

The spectral solver's Cayley path and DOT export share one neighbour map
(neighbour_map): the positions, among the sorted codes of a collected BFS,
of every vertex's neighbours.  It acts through _product_action too, so its
memory follows the graph, not the modulus, and it is charged to the memory
budget.  The solver's other path, the Gelfand-Graev modules of SL_2(F_p)
(spectral._gelfand_graev), needs no BFS: its vertices are the nonzero top
rows, and it reads their row table and shift from _sl2_rows, the same
tables that _sl2_ranks builds the rank action from.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import modmat
from .exactmat import ParameterError, generator_pair
from .modmat import ModMatrix
from .params import GraphSpec

def _mem_available(path: str = "/proc/meminfo") -> Optional[int]:
    """MemAvailable in bytes, or None when the file cannot be read."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _default_memory_budget() -> int:
    """Three quarters of MemAvailable, or 8 GiB when it cannot be read."""
    available = _mem_available()
    return available * 3 // 4 if available else 8 << 30


DEFAULT_MEMORY_BUDGET = _default_memory_budget()  # bytes, read once at import
_CHUNK = 1 << 19  # frontier search's elements per chunk
_ACT_BLOCK = 1 << 15  # codes that _product_action decodes at once: its scratch stays in cache
_ORBIT_BLOCK = 1 << 13  # codes that _Orbits.canon maps at once: its dozen vectors stay in cache
_BLOCK_BYTES = 1 << 18  # a row-block table of _top_action stays in cache
_TARGET_BYTES = 1 << 19  # a chunk of the table's int64 targets stays in cache
_SCAN_BYTES = 1 << 18  # table bytes that scan reads at once
_SPLIT = 1 << 20  # a table level this wide is expanded in two halves (_Table.charge)
_CLASS_CHUNK = 1 << 16  # entries of _sln_ranks's class table built at once
_DOT_LIMIT = 10_000


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
    codes: Optional[np.ndarray] = None  # sorted int64 element codes, when collected
    sphere_sizes: Tuple[int, ...] = ()  # |S_d| for each computed depth d


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


def symmetrize(generators: Sequence[ModMatrix]) -> List[ModMatrix]:
    """Generators plus inverses, deduplicated, in first-seen order."""
    out: List[ModMatrix] = []
    seen = set()
    for g in generators:
        for h in (g, g.inverse()):
            key = h.entries
            if key not in seen:
                seen.add(key)
                out.append(h)
    return out


def _digits(x: np.ndarray, count: int, m: int) -> List[np.ndarray]:
    """The count base-m digits of every entry of x, lowest first, by count - 1
    floor divisions: every entry lies below m^count, so the last quotient is
    the last digit (x itself when count is 1)."""
    digits = []
    for _ in range(count - 1):
        q = x // m  # faster than np.divmod, as in _top_action
        d = q * m
        np.subtract(x, d, out=d)
        digits.append(d)
        x = q
    digits.append(x)
    return digits


def _inverses(m: int) -> np.ndarray:
    """The inverse mod the prime m of every residue, 0 at 0: an int64 table of
    m entries."""
    return np.array([0] + [pow(x, -1, m) for x in range(1, m)], dtype=np.int64)


def _row_blocks(n: int, m: int, k: int) -> List[int]:
    """Rows per block of _top_action's tables over the top rows 0..n-2, from
    row 0 up.

    Every block has r rows, the most (at least one) whose table of m^(n r)
    block codes by k int64 targets fits in _BLOCK_BYTES; a last block takes
    the rows left over.
    """
    rows = n - 1
    r = 1
    while r < rows and 8 * k * m ** (n * (r + 1)) <= _BLOCK_BYTES:
        r += 1
    blocks = [r] * (rows // r)
    if rows % r:
        blocks.append(rows % r)
    return blocks


def _top_action(n: int, m: int, gens: Sequence[ModMatrix]):
    """Right multiplication by every generator on the tops of _sln_ranks.

    A top is the code of rows 0..n-2 of an element, and its row i is its
    base-(m^n) digit i.  Row i of M g is row_i(M) g, so for each generator a
    table over the m^n row codes, T_g[r] = code of the row vector r g, gives
    the top of M g as sum_i T_g[row_i(M)] m^(n i).  Consecutive rows are
    grouped into blocks (_row_blocks), each with one table over its m^(n r)
    block codes that sums the scaled row codes of its r rows, with the
    generators side by side; a block's table stays within _BLOCK_BYTES, so
    it stays in cache.  One action is then one division per block boundary
    and one gather of len(gens)-wide rows per block, summed: the three top
    rows of SL_4(F_3) take a gather from a 6,561-row table and one from an
    81-row table.  Returns act(tops) -> int64 array of shape (len(tops),
    len(gens)) whose column j holds the top of M g_j times m^(n-1), its
    place weight in the rank (the tables hold the scaled codes).
    """
    base = m**n
    digits = np.stack(_digits(np.arange(base, dtype=np.int64), n, m), axis=1)
    weights = m ** np.arange(n, dtype=np.int64)
    row_codes = np.array(
        [(digits @ np.array(g.entries, dtype=np.int64)) % m @ weights for g in gens],
        dtype=np.int64,
    ).reshape(len(gens), base).T  # (row code, generator)
    blocks = []  # (number of block codes, table), from row 0 up
    scale = m ** (n - 1)  # the place weight of the lowest row in the rank
    for r in _row_blocks(n, m, len(gens)):
        c = np.arange(base**r, dtype=np.int64)
        table = sum(row_codes[c // base**j % base] * (scale * base**j) for j in range(r))
        blocks.append((base**r, table))
        scale *= base**r  # the place weight of the next block's lowest row
    *low, (_, top) = blocks

    def act(tops) -> np.ndarray:
        high = np.asarray(tops, dtype=np.int64)
        parts = []  # the lower blocks' codes
        for size, _ in low:
            # numpy floor-divides by a scalar more than twice as fast as it
            # runs np.divmod
            q = high // size
            parts.append(high - q * size)
            high = q
        # the highest block's gather starts the sum: no zero fill
        out = np.take(top, high, axis=0)
        for part, (_, table) in zip(parts, low):
            out += np.take(table, part, axis=0)
        return out

    return act


def _code_action(n: int, m: int, plans):
    """Maps on element codes by decode, sum and encode: the one kernel on
    element codes.  It serves right multiplication by the generators
    (_product_action), for frontier search and neighbour_map, and the orbit
    maps of frontier search (_Orbits).

    plans holds, for each map, its output entries as (place weight
    m^(n r + x), terms): entry (r, x) of the image of M is sum w src mod m
    over the terms (src, w) of the entry, and a source is either digit
    n r + c, entry (r, c) of M, or for n = 3 source n^2 + n i + j, the 2 x 2
    minor (i, j) of M: the determinant of M without row i and column j.  An
    entry with no terms is 0 and is left out of its plan.  The kernel builds
    no table over the m^n row codes, so it costs nothing up front at any
    modulus, and a frontier of 10^5 codes takes milliseconds.  The codes are
    taken in blocks of _ACT_BLOCK, whose arrays stay in cache.  A block is
    decoded into n^2 contiguous digit arrays, one per entry (_digits), and
    its nine minors are formed when a plan reads one.  Each entry is added,
    times its place weight, into the output row of its map; a lone digit
    with coefficient 1 is already reduced, and any other entry e, a lone
    minor too, is reduced as e - (e // m) m, in two scratch vectors of the
    block's length that every entry and map reuses: numpy's int64 % is about
    4.5 times slower than a floor division by a scalar.  Every operation
    writes into an existing 1-D array of the block's length.  Returns
    act(codes, out=None) -> int64 array of shape (len(codes), len(plans))
    whose column j holds the images of the codes under map j, as a
    transposed view of a (len(plans), len(codes)) block: out when it is given
    (frontier search passes a block of its level's gathered targets, canon
    its images), which is filled whole, and a new block otherwise.  act.vectors
    counts the block-long vectors that act holds at once: the digit arrays
    and a quotient, the minors, and the two scratch vectors.  Exact in int64
    while the code space m^(n^2) and n m^2 are at most 2^63, as bfs()
    requires: every partial sum of a code stays below m^(n^2), every product
    entry below n m^2 and every scaled minor below m^3 in size.
    """
    k = len(plans)
    minors = any(src >= n * n for plan in plans for _, terms in plan for src, _ in terms)

    def act(codes, out=None) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        if out is None:
            out = np.empty((k, len(codes)), dtype=np.int64)
        # two scratch vectors, shared by every block, entry and map
        e, t = (np.empty(min(len(codes), _ACT_BLOCK), dtype=np.int64) for _ in range(2))
        for s in range(0, len(codes), _ACT_BLOCK):
            part = codes[s : s + _ACT_BLOCK]
            size = len(part)
            block(part, out[:, s : s + size], e[:size], t[:size])
        return out.T

    def block(part, out, e, t) -> None:
        sources = _digits(part, n * n, m)
        for i, j in itertools.product(range(n), repeat=2) if minors else ():
            (r1, r2), (c1, c2) = ([x for x in range(n) if x != y] for y in (i, j))
            minor = sources[n * r1 + c1] * sources[n * r2 + c2]
            np.multiply(sources[n * r1 + c2], sources[n * r2 + c1], out=t)
            np.subtract(minor, t, out=minor)
            sources.append(minor)
        for col, plan in zip(out, plans):
            if not plan:  # the zero matrix
                col.fill(0)
            for at, (weight, ((i, w), *more)) in enumerate(plan):
                entry = sources[i]
                if more or w != 1 or i >= n * n:  # a lone digit is already reduced
                    entry = e
                    np.multiply(sources[i], w, out=e)
                    for i, w in more:
                        if w == 1:
                            np.add(e, sources[i], out=e)
                        else:
                            np.multiply(sources[i], w, out=t)
                            np.add(e, t, out=e)
                    # e - (e // m) m, not e % m
                    np.floor_divide(e, m, out=t)
                    np.multiply(t, m, out=t)
                    np.subtract(e, t, out=e)
                if at == 0:  # the first entry fills the row: no zero fill
                    np.multiply(entry, weight, out=col)
                else:
                    np.multiply(entry, weight, out=t)
                    np.add(col, t, out=col)

    act.vectors = n * n + 3 + 9 * minors
    return act


def _product_action(n: int, m: int, gens: Sequence[ModMatrix]):
    """Right multiplication by every generator: _code_action with one plan
    per generator g, whose entry (r, x) of M g is sum_c digit(r, c) g[c, x]
    with its zero terms skipped.  act(codes)[:, j] holds the codes of M g_j."""
    return _code_action(
        n,
        m,
        [
            [
                (m ** (n * r + x), terms)
                for r in range(n)
                for x in range(n)
                if (terms := [(n * r + c, g.entries[c][x]) for c in range(n) if g.entries[c][x]])
            ]
            for g in gens
        ],
    )


# A map of _symmetries, (W, cof): entry (i, j) of the image of M is
# W[i][j] src[i][j] mod m, where src is M, or with cof its cofactor matrix
Symmetry = Tuple[Tuple[Tuple[int, ...], ...], bool]


def _symmetries(gens: Sequence[ModMatrix]) -> List[Symmetry]:
    """Automorphisms of the group that permute the symmetrized generator set
    gens, other than the identity.

    An automorphism phi with phi(gens) = gens fixes the identity and maps
    each edge {M, M g} onto {phi(M), phi(M) phi(g)}, so it is an automorphism
    of the Cayley graph that keeps the distance from the identity, and every
    sphere is a union of orbits of the group Sigma these maps make; frontier
    search keeps one code per orbit (_Orbits).  The candidates:

    - tau, conjugation by E = diag((-1)^i): W = ((-1)^(i+j));
    - when every generator has determinant 1 and n is 2 or 3 (the kernel
      forms cofactors from 2 x 2 minors at most), sigma(M) = D M^(-T) D^(-1)
      with D = diag(beta^i): W = (beta^(i-j)) on the cofactor matrix, which
      is M^(-T) for det M = 1.  sigma scales entry (i, j) by beta^(i-j), so
      one adjacent off-diagonal entry of cof(gens[0]) that is a unit fixes
      the beta that sends gens[0] onto a given s in gens; the first s whose
      sigma passes gives the beta;
    - their product tau sigma.

    A candidate passes only if it maps gens exactly onto gens, checked on
    ModMatrix.  tau and sigma are commuting involutions, so those that pass
    and the identity form a group.  One map is returned per permutation of
    gens that they induce, other than the identity: maps that induce the
    same permutation agree on the group gens generate.  For the dim2 pair
    X = [[1, la], [0, 1]], Y = [[1, 0], [lb, 1]], tau inverts both, and sigma
    with beta = b / a sends X to Y^(-1) and Y to X^(-1): |Sigma| = 4.
    """
    n, m = gens[0].n, gens[0].m
    sign = tuple(tuple((-1) ** (i + j) % m for j in range(n)) for i in range(n))
    index = {g.entries: at for at, g in enumerate(gens)}
    unimodular = n in (2, 3) and all(g.det() == 1 for g in gens)
    sources = {False: [g.entries for g in gens]}
    if unimodular:
        sources[True] = [g.inverse().transpose().entries for g in gens]

    def permutation(sym: Symmetry) -> Optional[Tuple[int, ...]]:
        # the entries of each image, reduced mod m as ModMatrix keeps them
        W, cof = sym
        perm = tuple(
            index.get(tuple(tuple(w * x % m for w, x in zip(*rows)) for rows in zip(W, src)), -1)
            for src in sources[cof]
        )
        return perm if sorted(perm) == list(range(len(gens))) else None

    candidates = [(sign, False)]
    if unimodular:
        cof = sources[True][0]
        spots = [(i, j) for i in range(n) for j in (i - 1, i + 1) if 0 <= j < n]
        spot = next(((i, j) for i, j in spots if gcd(cof[i][j], m) == 1), None)
        for s in gens if spot else ():
            i, j = spot
            if gcd(s.entries[i][j], m) != 1:
                continue
            scale = s.entries[i][j] * pow(cof[i][j], -1, m) % m  # beta^(i - j)
            beta = scale if i > j else pow(scale, -1, m)
            W = tuple(tuple(pow(beta, x - y, m) for y in range(n)) for x in range(n))
            if permutation((W, True)):
                tau_W = tuple(tuple(w * e % m for w, e in zip(*rows)) for rows in zip(W, sign))
                candidates += [(W, True), (tau_W, True)]
                break
    maps, seen = [], {tuple(range(len(gens)))}
    for sym in candidates:
        perm = permutation(sym)
        if perm is not None and perm not in seen:
            seen.add(perm)
            maps.append(sym)
    return maps


class _Orbits:
    """The orbits of Sigma, the maps of _symmetries and the identity, on
    element codes: frontier search keeps one code per orbit, the least.

    Each map is a plan of _code_action, built once: its entry (i, j) is
    W[i][j] times entry (i, j) of M, or of the cofactor matrix of M, which is
    (-1)^(i+j) times minor (i, j): for n = 2 the digit opposite (i, j), for
    n = 3 a 2 x 2 minor that the kernel forms.  canon and orbit_sizes run
    the kernel into one (|Sigma| - 1)-row image array.  canon works in
    blocks of _ORBIT_BLOCK codes, a quarter of _ACT_BLOCK, so that the
    kernel's vectors and the images stay in cache: with _ACT_BLOCK itself
    the girth_ball searches took 20-35% longer.
    """

    def __init__(self, n: int, m: int, maps: Sequence[Symmetry]):
        self.size = 1 + len(maps)
        plans = []
        for W, cof in maps:
            plan = []
            for i, j in itertools.product(range(n), repeat=2):
                w, src = W[i][j], n * i + j
                if cof:
                    w = w * (-1) ** (i + j) % m
                    src = n * (1 - i) + 1 - j if n == 2 else n * n + src
                plan.append((m ** (n * i + j), [(src, w)]))
            plans.append(plan)
        self.act = _code_action(n, m, plans)

    def scratch(self, block: int) -> int:
        """Bytes that canon holds for a block of that many codes: the kernel's
        vectors, the |Sigma| - 1 images and two masks."""
        return (8 * (self.act.vectors + self.size - 1) + 2) * block if self.size > 1 else 0

    def canon(self, codes: np.ndarray) -> List[np.ndarray]:
        """Replace every code in place by the least code of its orbit.
        Returns, in pieces, the canonical codes of the orbits met whose
        codes have a nontrivial stabilizer: fewer than |Sigma| elements."""
        if self.size == 1 or not len(codes):
            return []
        block = min(len(codes), _ORBIT_BLOCK)
        images = np.empty((self.size - 1, block), dtype=np.int64)
        same = np.empty(block, dtype=bool)
        stabilized = []
        for s in range(0, len(codes), block):
            part = codes[s : s + block]
            size = len(part)
            rows, eq = images[:, :size], same[:size]
            self.act(part, out=rows)
            fixed = None
            for image in rows:
                np.equal(image, part, out=eq)
                if eq.any():
                    fixed = eq.copy() if fixed is None else fixed | eq
            for image in rows:
                np.minimum(part, image, out=part)
            if fixed is not None:
                stabilized.append(part[fixed])
        return stabilized

    def count(self, level: np.ndarray, stabilized: List[np.ndarray]) -> int:
        """Elements in the orbits of the sorted canonical codes level: |Sigma|
        per code, less the stabilized orbits' shortfall.  stabilized (from
        canon) holds the canonical codes of every stabilized orbit in level,
        and maybe others."""
        total = self.size * len(level)
        if stabilized and len(level):
            # sorted and deduplicated by hand: np.unique imports numpy.ma,
            # which costs the first call about 20 ms
            fixed = np.sort(np.concatenate(stabilized))
            fixed = fixed[np.append(True, fixed[1:] != fixed[:-1])]
            at = np.minimum(level.searchsorted(fixed), len(level) - 1)
            fixed = fixed[level[at] == fixed]
            total -= int((self.size - self.orbit_sizes(fixed)).sum())
        return total

    def orbit_sizes(self, codes: np.ndarray) -> np.ndarray:
        """|Sigma| / |Stab(M)| for every code: its distinct images."""
        images = np.empty((self.size, len(codes)), dtype=np.int64)
        images[0] = codes
        self.act(codes, out=images[1:])
        images.sort(axis=0)
        return 1 + (images[1:] != images[:-1]).sum(axis=0)


def _sl2_rows(m: int, gens: Sequence[ModMatrix]):
    """The row action of SL_2(F_m) on its top rows: (x0, y0, rows, shift).

    Row 0 of [[a, b], [c, d]] has the code r0 = a + b m, and det = 1 puts
    row 1 on the line v0(r0) + t (a, b), with the point v0 = (-1/b, 0) when
    b != 0 and (0, 1/a) when b = 0, and 0 <= t < m.  So every element with
    top row r0 is [[1, 0], [t, 1]] sigma(r0) for one t, with the
    representative sigma(r0) = [r0; v0(r0)], and x0, y0 are the entries of
    v0 over the m^2 codes.  Row i of M g is row_i(M) g, so for generator
    g_j, sigma(r0) g_j = [[1, 0], [s, 1]] sigma(r2) with the top row
    r2 = rows[j, r0], the code of (a, b) g_j, and s = shift[j, r0], read off
    at a nonzero entry of row r2.  rows and shift are (k, m^2) int64, and
    both are 0 at the unused code r0 = 0.  Two readers: _sl2_ranks, the rank
    table's action, and spectral._gelfand_graev, whose module vertices are
    the nonzero top rows.
    """
    r0 = np.arange(m * m, dtype=np.int64)
    a, b = r0 % m, r0 // m
    inv = _inverses(m)
    lead = b != 0
    x0, y0 = np.where(lead, -inv[b], 0) % m, np.where(lead, 0, inv[a])  # v0(r0)
    rows, shift = (np.empty((len(gens), m * m), dtype=np.int64) for _ in range(2))
    for j, g in enumerate(gens):
        (g00, g01), (g10, g11) = g.entries
        a2, b2 = (a * g00 + b * g10) % m, (a * g01 + b * g11) % m
        r2 = a2 + b2 * m
        # v0(r0) g - v0(r2) = s (a2, b2), read off at a nonzero entry of row 0
        wx = (x0 * g00 + y0 * g10 - x0[r2]) % m
        wy = (x0 * g01 + y0 * g11 - y0[r2]) % m
        rows[j] = r2
        shift[j] = np.where(b2 != 0, wy * inv[b2], wx * inv[a2]) % m
    return x0, y0, rows, shift


def _sl2_ranks(m: int, gens: Sequence[ModMatrix]):
    """Right multiplication on the ranks of SL_2(F_m), and the unrank map.

    The rank of [[1, 0], [t, 1]] sigma(r0) is r0 m + t (_sl2_rows, which
    spectral._gelfand_graev reads too), so m^3 ranks index the m^3 - m
    elements; those with r0 = 0 are unused.  Since sigma(r0) g =
    [[1, 0], [s_g[r0], 1]] sigma(T_g[r0]), rank(M g) = T_g[r0] m +
    (t + s_g[r0]) mod m, from the row and shift tables over the m^2 row-0
    codes per generator and one table of the 2m residues.  n = 2 keeps this
    shift form: _sln_ranks's step table over the (class, t) pairs would hold
    k m^3 int64 entries, more than the m^3-byte table it serves.  Returns
    (act, unrank): act(ranks), the ranks of every M g_j as _product_action
    gives their codes, also as a transposed view, and unrank(ranks), the
    element codes of the ranks in order.
    """
    x0, y0, head, shift = _sl2_rows(m, gens)
    head *= m
    wrap = np.arange(2 * m, dtype=np.int64) % m

    def act(ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        row0 = ranks // m
        t = row0 * m
        np.subtract(ranks, t, out=t)
        out = np.take(shift, row0, axis=1)
        out += t
        out = np.take(wrap, out)
        out += np.take(head, row0, axis=1)
        return out.T

    def unrank(ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        row0 = ranks // m
        t = ranks - row0 * m
        c = (x0[row0] + t * (row0 % m)) % m
        d = (y0[row0] + t * (row0 // m)) % m
        return row0 + (c + d * m) * (m * m)

    return act, unrank


def _pivot(vec: Sequence[np.ndarray]) -> np.ndarray:
    """Position of the first nonzero entry of each vector, given entrywise
    (0 for the zero vector)."""
    at = np.zeros(np.shape(vec[0]), dtype=np.int8)
    for y in reversed(range(len(vec))):
        at[vec[y] != 0] = y
    return at


def _class_dtype(n: int, m: int) -> np.dtype:
    """dtype of _sln_ranks's class table: the smallest unsigned integer that
    holds the m^n codes of a cofactor vector."""
    return np.min_scalar_type(m**n - 1)


def _classes(n: int, m: int) -> np.ndarray:
    """_sln_ranks's class table: the code of the cofactor vector C(top) for
    each of the m^(n(n-1)) tops, of _class_dtype; 0 exactly where the top
    rows are dependent, so that no rank with that top is used.  Built in
    chunks of rows 1..n-2."""
    # C is linear in row 0: with top = row_0 + m^n rest, where rest holds
    # rows 1..n-2, entry y of C is row_0 . K_y(rest) for the column
    # K_y(rest)[x] = det [e_x; rest; e_y], a sum over the permutations that
    # send row 0 to x and row n - 1 to y.  With dot[k, r], the dot product
    # mod m of the rows whose codes are k and r, the m^n classes at one rest
    # are sum_y m^y dot[code of K_y(rest)]: n gathers of whole rows of dot
    rest = _digits(np.arange(m ** (n * (n - 2)), dtype=np.int32), n * (n - 2), m)
    K = np.zeros((n, n, m ** (n * (n - 2))), dtype=np.int32)  # K[x, y] at every rest
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for i in range(1, n - 1):
            term = term * rest[n * (i - 1) + perm[i]]
        K[perm[0], perm[-1]] += term
    cols = sum(K[x] % m * m**x for x in range(n))  # cols[y]: code of K_y at every rest
    dtype = _class_dtype(n, m)
    row = [e.astype(np.uint16) for e in _digits(np.arange(m**n), n, m)]
    dot = (sum(np.multiply.outer(e, e) for e in row) % m).astype(dtype)
    cls = np.empty((len(cols[0]), m**n), dtype=dtype)
    per = max(1, _CLASS_CHUNK // m**n)  # rests per chunk
    for a in range(0, len(cls), per):
        part = cls[a : a + per]
        part[:] = 0
        for y, at in enumerate(cols[:, a : a + per]):
            part += np.take(dot, at, axis=0) * m**y
    return cls.reshape(-1)


def _sln_ranks(n: int, m: int, gens: Sequence[ModMatrix], cls: np.ndarray):
    """Right multiplication on the ranks of SL_n(F_m) for n >= 3, and the
    unrank map.

    The code of M is top + m^(n(n-1)) r: top, its low digits, holds rows
    0..n-2 and r is the code of the last row.  det M = C . r for the cofactor
    vector C = C(top), so det M = 1 fixes the last row's entry at the pivot
    j, the first nonzero entry of C, from its other n - 1 entries, whose
    code is s.  The rank is s + m^(n-1) top: m^(n^2-1) ranks index the
    elements, and those whose top has C = 0 are unused.  The top rows are
    the rank's high digits, as they are the code's, so the targets of a
    sorted level stay in few stretches of the table (_Table); with s high
    instead, the SL_4(F_3) closure's lookups took about 40% longer.  Row i
    of M g is row_i(M) g, so _top_action moves a top to the top of M g, and
    as det g = 1 the cofactor vector of M g is C g^(-T).  Two tables give
    the rest.  cls[top], over the m^(n(n-1)) tops, holds the code of
    C(top).  step_g[c m^(n-1) + s], over the m^(2n-1) pairs of a class c
    and an s, lifts s to the last row r by solving C . r = 1 at j, forms
    r g and holds the code s' of r g without its entry at the pivot of
    C g^(-T).  So the rank of M g is _top_action(top)_g +
    step_g[cls[top] m^(n-1) + s], as _top_action's tables hold the tops
    times m^(n-1): three gathers and a few divisions, over a table m times
    smaller than one indexed by codes.  Both tables are built from vectors
    of small integers, cls by _classes in the caller;
    _table_index counts their bytes.  Returns (act, unrank) with
    _sl2_ranks's contract.
    """
    k, top_size, lows = len(gens), m ** (n * (n - 1)), m ** (n - 1)
    inv = _inverses(m)

    def lift(C: List[np.ndarray], s: List[np.ndarray]) -> List[np.ndarray]:
        # the last row, entrywise: s around the pivot j, and at j the entry
        # that makes C . r = 1
        j = _pivot(C)
        r = [
            np.where(j > x, s[x] if x < n - 1 else 0, s[x - 1] if x else 0) * (j != x)
            for x in range(n)
        ]
        at_j = (1 - sum(c * e for c, e in zip(C, r))) * inv[np.choose(j, C)] % m
        return [np.where(j == x, at_j, e) for x, e in enumerate(r)]

    c, s = np.divmod(np.arange(m**n * lows, dtype=np.int32), lows)
    C = _digits(c, n, m)
    r = lift(C, _digits(s, n - 1, m))
    step = np.empty((len(c), k), dtype=np.int64)
    for col, g in zip(step.T, gens):
        ge, gi = g.entries, g.inverse().entries
        rg = [sum(e * ge[x][y] for x, e in enumerate(r)) % m for y in range(n)]
        j = _pivot([sum(e * gi[y][x] for x, e in enumerate(C)) % m for y in range(n)])
        col[:] = sum(np.where(j > z, rg[z], rg[z + 1]) * m**z for z in range(n - 1))
    top_act = _top_action(n, m, gens)

    def act(ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        top = ranks // lows
        s = ranks - top * lows
        at = np.multiply(np.take(cls, top), lows, dtype=np.int64)
        at += s
        out = top_act(top)
        out += np.take(step, at, axis=0)
        return out

    def unrank(ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        top = ranks // lows
        s = ranks - top * lows
        last = lift(_digits(np.take(cls, top).astype(np.int64), n, m), _digits(s, n - 1, m))
        return top + top_size * sum(e * m**x for x, e in enumerate(last))

    return act, unrank


def _table_index(gens: Sequence[ModMatrix]) -> Optional[Tuple[int, int]]:
    """How _Table indexes the elements by rank in SL_n(F_m): (index space,
    bytes of the rank action's tables), or None when they are not ranked.

    Ranks need n >= 2, a prime m and generators of determinant 1, so that
    every element reached lies in SL_n(F_m).  For n = 2 (_sl2_ranks), m^3
    indices, and two int64 tables over the m^2 row-0 codes per generator.
    For n >= 3 (_sln_ranks), m^(n^2-1) indices, and a class table over the
    m^(n(n-1)) tops (_class_dtype) and an int64 step table of m^(2n-1) rows
    of k.
    """
    n, m, k = gens[0].n, gens[0].m, len(gens)
    if n < 2 or not modmat.is_prime(m) or any(g.det() != 1 for g in gens):
        return None
    if n == 2:
        return m**3, 16 * k * m * m
    cls = _class_dtype(n, m).itemsize * m ** (n * (n - 1))
    return m ** (n * n - 1), cls + 8 * k * m ** (2 * n - 1)


def _index_dtype(space: int):
    """dtype of _Table's level indices over an index space of that size.

    int32 while every index, below space, fits in it (space <= 2^31), int64
    past that.
    """
    return np.int32 if space <= 2**31 else np.int64


def _halves(work, stop: int, split: bool) -> List[list]:
    """The lists that work(start, stop) returns for range(stop), one per
    thread.  With split, and when two CPUs are available, the halves below
    and above the middle mid, the upper one on a worker thread: [work(0,
    mid), work(mid, stop)] (numpy releases the GIL in the gathers,
    compresses and scatters of the halves).  Otherwise the whole range
    here, [work(0, stop)].  The worker is always joined, and its exception
    re-raised here."""
    # os has no sched_getaffinity on macOS and Windows: one CPU there
    if not split or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [work(0, stop)]
    mid = stop // 2
    upper = []  # the worker's result, or the exception it raised

    def run() -> None:
        try:
            upper.append(work(mid, stop))
        except BaseException as exc:  # re-raised in the calling thread
            upper.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        lower = work(0, mid)
    finally:
        worker.join()
    if isinstance(upper[0], BaseException):
        raise upper[0]
    return [lower, upper[0]]


class _Table:
    """Visited set over a whole index space: one byte per index, set once the
    index is reached, level d as cur and its width elements.

    The index is the rank in SL_n(F_m) (m^3 bytes for n = 2, m^(n^2-1) for
    n >= 3); unrank maps indices back to codes.  advance builds level d + 1
    top-down, by acting on level d and visiting the targets, or bottom-up by
    scan, as bottom_up decides; a level that only scan follows is not built,
    and cur is None, unless hits may read it.  While the girth is tracked,
    advance keeps level d as prev and builds level d + 1 in full, as the
    next hits may read it.  The table holds no depth: _bfs's collision rule
    needs only the level sizes, hits acts on level d once more, at the one
    level where the rule finds a cycle, and scan needs only to know which
    indices are visited.  The unused ranks, those of a top whose class
    (cls) is 0, read visited until codes() clears them.  A level of _SPLIT
    elements or more is expanded in two halves (_halves): top-down, two
    threads mark the shared table, so an index can be kept twice, and close
    drops the repeats; scan only reads the table until both halves join.
    """

    def __init__(self, gens: List[ModMatrix], index: Tuple[int, int]):
        n, m = gens[0].n, gens[0].m
        self.k = len(gens)
        # elements per chunk, whose targets stay in cache
        self.chunk = max(1, _TARGET_BYTES // (8 * self.k))
        size, self.tables = index  # from _table_index
        if n == 2:
            self.act, self.unrank = _sl2_ranks(m, gens)
            root = m  # the identity: r0 = 1, t = 0
            # the top is row 0 (a, b), and r0 stands in for the code of its
            # cofactor vector (-b, a): both are 0 only at r0 = 0
            self.cls = np.arange(m * m, dtype=np.int32)
        else:
            self.cls = _classes(n, m)  # shared with the rank action
            self.act, self.unrank = _sln_ranks(n, m, gens, self.cls)
            # the identity: its top rows, C = e_(n-1) and s = 0
            root = m ** (n - 1) * sum(m ** (i * (n + 1)) for i in range(n - 1))
        self.used = modmat.group_order_sl(n, m)
        self.seen = np.zeros(size, dtype=bool)
        self.seen[root] = True
        # the unused ranks read visited, so scan never acts on them
        self._mark_unused(True)
        self.dtype = _index_dtype(size)
        self.cur = np.array([root], dtype=self.dtype)
        self.width = 1
        self.prev = None  # level d for hits, while the girth is tracked

    def _mark_unused(self, value: bool) -> None:
        # the ranks of every top whose cofactor vector is 0: the table holds
        # one row of ranks per top
        self.seen.reshape(len(self.cls), -1)[self.cls == 0] = value

    def charge(self, order: int) -> int:
        # the table, the rank action's tables (_sl2_ranks's shift tables, or
        # _sln_ranks's class and step tables), 9 bytes per element of level
        # d (its index of 4 bytes, or 8 past an index space of 2^31; the rest
        # is spare) and the int64 target block of one chunk.  Not charged:
        # level d + 1's pieces as _act_and_visit keeps them and their
        # concatenation in close, _top_action's tables, each within
        # _BLOCK_BYTES, and the temporaries that build _sln_ranks's tables
        # before the first level.  A level that only scan follows, unless
        # hits may read it, holds its pieces only until they are more than
        # half of the used indices unvisited before it, and is never
        # concatenated: at the SL_4(F_3) closure's widest level the peak
        # RSS then grows by about 0.85 times peak_bytes, against 0.99 when
        # that level was built.
        # A level built by scan fits this charge: scan runs when fewer than
        # width used indices are unvisited, and holds its kept indices (4
        # bytes) and one block's unvisited ones (8, and up to 1 MiB more for
        # the block's kept ones), then the level beside its pieces: below 8
        # of the 9 bytes per element of level d, which advance frees first
        # unless it keeps it for hits while the girth is open.  Past 2^31
        # indices the kept ones take 8.
        # A level is split (_SPLIT) only when 5 bytes per element, its spare
        # beside its index, cover the worker's live bytes: one chunk's act
        # and visit temporaries (1.8 MB at degree 4) and, in scan, one
        # block's inverted bytes and unvisited indices (up to 2.25 MiB)
        width = self.width
        return len(self.seen) + self.tables + 9 * width + 8 * self.k * min(width, self.chunk)

    def bottom_up(self, width: int, order: int) -> bool:
        # scan acts on the unvisited used indices, top-down on level d
        return self.used - order < width

    def scan(self, width: int, order: int) -> np.ndarray:
        # level d + 1 bottom-up: the unvisited indices with a visited
        # target, found in sorted order and marked once all are found.  A
        # split level gives each half of the blocks to one thread, which
        # only reads the table, so the halves join in sorted order
        if order == self.used:  # no used index is left unvisited
            return np.empty(0, dtype=self.dtype)

        def blocks(first: int, last: int) -> List[np.ndarray]:
            pieces = []
            for at in range(first * _SCAN_BYTES, last * _SCAN_BYTES, _SCAN_BYTES):
                idx = np.flatnonzero(~self.seen[at : at + _SCAN_BYTES])
                idx += at
                for s in range(0, len(idx), self.chunk):
                    part = idx[s : s + self.chunk]
                    tgts = self.act(part)
                    hit = self.seen[tgts[:, 0]]
                    for j in range(1, self.k):
                        hit |= self.seen[tgts[:, j]]
                    pieces.append(np.compress(hit, part).astype(self.dtype, copy=False))
            return pieces

        count = -(-len(self.seen) // _SCAN_BYTES)
        pieces = sum(_halves(blocks, count, width >= _SPLIT), [])
        nxt = np.concatenate(pieces) if pieces else np.empty(0, dtype=self.dtype)
        self.seen[nxt] = True
        return nxt

    def _act_and_visit(self, start: int, stop: int, track: bool, order: int, counts: list) -> list:
        # the pieces of level d + 1 among the targets of cur[start:stop],
        # acted on a chunk at a time and visited one generator column at a
        # time: right multiplication by a fixed generator is injective, so a
        # column holds no duplicate, and the targets visited by an earlier
        # column or chunk are dropped.  Unless the girth is tracked (track),
        # both halves drop their pieces, and keep none, as soon as the
        # indices they kept make bottom_up pick scan for the step after it
        # (_dropped): scan reads only the marks.  Each half counts in its
        # own cell of counts, which advance passes for this step only, so no
        # count is lost between the threads
        new = []
        count = [0]
        counts.append(count)
        for s in range(start, stop, self.chunk):
            # a chunk's targets stay allocated while the next chunk's are
            # built: freed at once, they let malloc trim the heap and fault
            # it back in at every chunk, which made a fresh dg_table sweep of
            # p = 3..101 13% slower
            tgts = self.act(self.cur[s : s + self.chunk])
            for j in range(self.k):
                t = tgts[:, j]
                kept = np.compress(~self.seen[t], t)
                # scatter through the int64 targets, which index faster than
                # int32 ones; only the kept level is narrowed
                self.seen[kept] = True
                count[0] += len(kept)
                if self._dropped(track, order, counts):
                    new.clear()
                else:
                    new.append(kept.astype(self.dtype, copy=False))
            # the last column's int64 kept targets, freed before the next
            # chunk's act: alive there, they raised the SL_4(F_3) closure's
            # peak RSS by about 0.3 MB
            del kept
        return new

    def _dropped(self, track: bool, order: int, counts: List[List[int]]) -> bool:
        # whether level d + 1 is dropped: the girth is not tracked, and the
        # indices that both halves kept so far, repeats included, make
        # bottom_up pick scan for the step after it.  The count only grows,
        # so once a level is dropped it stays dropped
        width = sum(c[0] for c in counts)
        return not track and self.bottom_up(width, order + width)

    def advance(self, order: int, track: bool) -> int:
        # while the girth is tracked, level d stays as prev for hits and
        # level d + 1 is built in full.  Otherwise cur is dropped before
        # scan or close builds level d + 1, so level d is freed there.  A
        # level of _SPLIT elements or more leaves spare charge for the
        # worker's bytes.  A level that _act_and_visit dropped leaves cur
        # None, and its size is read from the marks.  On one thread its
        # count is exact, so a level is dropped exactly when bottom_up
        # picks scan after it
        self.prev = self.cur if track else None
        width = self.width
        if self.cur is None or self.bottom_up(width, order):
            self.cur = None
            self.cur = self.scan(width, order)
            self.width = len(self.cur)
            return self.width
        counts = []  # the per-half counts of this step

        def work(start: int, stop: int) -> List[np.ndarray]:
            return self._act_and_visit(start, stop, track, order, counts)

        halves = _halves(work, width, width >= _SPLIT)
        self.cur = None
        if self._dropped(track, order, counts):
            del halves
            # the used indices that were unvisited, less those that still are
            self.width = self.used - order - (len(self.seen) - int(np.count_nonzero(self.seen)))
        else:
            self.cur = self.close(halves)
            self.width = len(self.cur)
        return self.width

    def close(self, halves: List[List[np.ndarray]]) -> np.ndarray:
        # level d + 1 in sorted order: row i of M g is row_i(M) g, so the
        # targets of each generator then fall into few contiguous blocks of
        # the table, and the next level's gathers and scatters stay in cache
        threads = len(halves)
        nxt = np.concatenate(sum(halves, []))
        halves.clear()  # frees the pieces before the sort
        nxt.sort()
        if threads == 1:
            return nxt
        # two threads keep an index that each read unvisited before the
        # other marked it, and the sort puts the repeat beside it: find the
        # repeats a chunk at a time, then move the stretches between them
        # down in place, as a copy of the level would cost its bytes again
        repeats = []
        for at in range(1, len(nxt), _CHUNK):
            part = nxt[at : at + _CHUNK]
            repeats += (at + np.flatnonzero(part == nxt[at - 1 : at - 1 + len(part)])).tolist()
        kept = start = 0
        for r in repeats + [len(nxt)]:
            if kept < start:
                nxt[kept : kept + r - start] = nxt[start:r]
            kept += r - start
            start = r + 1
        return nxt[:kept]

    def hits(self) -> bool:
        # every target of level d (prev) lies in levels d - 1, d or d + 1,
        # all visited once d closes: with level d cleared for a moment, the
        # targets that read unvisited are those in level d
        self.seen[self.prev] = False
        hit = any(
            not self.seen[self.act(self.prev[s : s + self.chunk])].all()
            for s in range(0, len(self.prev), self.chunk)
        )
        self.seen[self.prev] = True
        return hit

    def codes(self) -> np.ndarray:
        # unranked in place, a chunk at a time: _sln_ranks's unrank makes
        # a few dozen temporaries of its input's length
        self._mark_unused(False)
        out = np.flatnonzero(self.seen)
        for at in range(0, len(out), _CHUNK):
            out[at : at + _CHUNK] = self.unrank(out[at : at + _CHUNK])
        out.sort()
        return out


class _Levels:
    """Visited set of the sorted codes of levels d - 1 and d (frontier
    search), one code per orbit of Sigma (_Orbits): the least.  A collected
    search keeps every code, for the neighbour map and DOT export, and takes
    the trivial group."""

    def __init__(self, gens: List[ModMatrix], collect: bool):
        n, m = gens[0].n, gens[0].m
        self.k, self.n = len(gens), n
        self.act = _product_action(n, m, gens)
        self.orbits = _Orbits(n, m, [] if collect else _symmetries(gens))
        self.prev = np.empty(0, dtype=np.int64)
        self.cur = np.array([modmat.encode(ModMatrix.identity(n, m))], dtype=np.int64)
        self.levels = [self.cur] if collect else None

    def charge(self, order: int) -> int:
        # live while level d + 1 is built from the width codes of level d:
        # the codes of levels d - 1 and d (of every level when collecting),
        # and per code of level d its k gathered 8-byte targets and their
        # bytes of close's mask of first occurrences.  Beside them, one at a
        # time: act's scratch, the n^2 digit arrays, a quotient and two
        # vectors of one block of min(width, _ACT_BLOCK) codes; canon's, on
        # a block of min(k width, _ORBIT_BLOCK) targets (_Orbits.scratch);
        # a probe of level d - 1 or d, 17 bytes per code: its positions
        # among the targets, the codes read there and the match mask; and
        # level d + 1 as close copies it out of the targets, 8 bytes per
        # code it can hold: k per code of level d at d = 0, and k - 1 past
        # it, as each stored code of level d has a target in level d - 1.
        # Not charged: the sort's temporaries
        width = len(self.cur)
        kept = order if self.levels is not None else len(self.prev) + width
        scratch = max(
            8 * (self.n**2 + 3) * min(width, _ACT_BLOCK),
            self.orbits.scratch(min(self.k * width, _ORBIT_BLOCK)),
            17 * max(len(self.prev), width),
            8 * (self.k - 1 if len(self.prev) else self.k) * width,
        )
        return 8 * kept + 9 * self.k * width + scratch

    def advance(self, order: int, track: bool) -> int:
        # only gather the targets, a chunk at a time: close sorts and probes
        # the whole level once.  Each chunk's act writes its (k, L) block
        # straight into the level's one target array, where canon replaces
        # each target by its orbit's code and close reads it, so no chunk's
        # block is copied again.  track is not read: every level is kept as
        # cur, since the next one is built from its codes, and hits reads
        # close's probe
        k, width = self.k, len(self.cur)
        joined = np.empty(k * width, dtype=np.int64)
        stabilized = []
        for s in range(0, width, _CHUNK):
            part = self.cur[s : s + _CHUNK]
            block = joined[k * s : k * (s + len(part))]
            self.act(part, out=block.reshape(k, len(part)))
            stabilized += self.orbits.canon(block)
        self.close(joined)
        return self.orbits.count(self.cur, stabilized)

    def close(self, joined: np.ndarray) -> None:
        # one sort of level d's targets, in place; the codes of levels d - 1
        # and d, far fewer than the k |L_d| targets, then probe them in
        # order.  The mask of first occurrences, cleared at every hit, leaves
        # level d + 1
        joined.sort()
        keep = np.empty(len(joined), dtype=bool)
        keep[:1] = True
        np.not_equal(joined[1:], joined[:-1], out=keep[1:])

        def probe(level):
            # the first position of each code found among the targets; a
            # code past the last target gets len(joined), clamped onto a
            # target that differs from it
            at = joined.searchsorted(level)
            np.minimum(at, len(joined) - 1, out=at)
            at = at[joined[at] == level]
            keep[at] = False
            return at

        probe(self.prev)
        self.hit = len(probe(self.cur)) > 0  # for hits
        nxt = joined[keep]
        self.prev, self.cur = self.cur, nxt
        if self.levels is not None:
            self.levels.append(nxt)

    def hits(self) -> bool:
        # read from the probe of level d that close made
        return self.hit

    def codes(self) -> np.ndarray:
        return np.sort(np.concatenate(self.levels))


def _bfs(
    store,
    k: int,
    *,
    want_girth: bool,
    girth_only: bool,
    collect: bool,
    memory_budget: int,
) -> BfsResult:
    """The level-synchronous sweep of degree k over store, the _Table or
    _Levels that bfs() builds, which holds level d: the identity alone when
    it is built.

    A store indexes elements in its own way (_Table by SL_n rank, _Levels by
    the code of each orbit of Sigma), and the loop reads it through four
    members: charge(order), the bytes live while level d + 1 is built from
    level d, with order elements reached so far; advance(order, track),
    which builds level d + 1 in place of level d and returns its number of
    elements (for _Levels, the sum of its orbits' sizes); hits(), called
    after advance, which says whether a target of level d lies in level d;
    and codes(), the sorted element codes.  track says whether the girth is
    still tracked, so whether hits may be called after this advance or the
    next: while it is, the store keeps what its hits reads (the table keeps
    level d, and builds level d + 1 in full; frontier search answers from
    close's probe), and it may free level d as soon as it is not.  The loop
    holds no level.  The level sizes, the order and the collision rule
    count elements, not indices.  How a level is built is the store's own
    choice: the table alone builds a level bottom-up near the end of a
    sweep and splits a wide level between two threads, and neither changes
    a level, so the results do not depend on the CPU count.  A level whose
    charge exceeds the budget is never built; peak_bytes is the largest
    charge.

    The collision rule lives here, on the level sizes alone.  While the
    girth is tracked at level d, an element of level d has one neighbour in
    level d - 1: a second would have made it a target reached twice from
    level d - 1, closing a cycle of length 2d there.  So of the k |L_d|
    targets, |L_d| lie in level d - 1 (none at d = 0) and |L_{d+1}| are the
    new elements reached once each; any other target lies in level d
    (2d + 1) or reaches a new element twice (2d + 2).  Only at the level
    where the count finds such a target does hits decide between the two.
    """
    sizes = [1]
    order = 1
    peak = 0
    d = 0
    girth: Optional[int] = None
    while True:
        charge = store.charge(order)
        if charge > memory_budget:
            raise BudgetExceededError(d, order)
        peak = max(peak, charge)
        track = want_girth and girth is None
        new = store.advance(order, track)
        size = sizes[-1]
        if track and k * size - new - (size if d else 0) > 0:
            girth = 2 * d + 1 if store.hits() else 2 * d + 2
            if girth_only:
                return BfsResult(order, None, girth, k, max(sizes), peak, None, tuple(sizes))
        if not new:
            break
        sizes.append(new)
        order += new
        d += 1
    codes = store.codes() if collect else None
    return BfsResult(order, d, girth, k, max(sizes), peak, codes, tuple(sizes))


def _check_sphere_sizes(sizes: Sequence[int], k: int, girth: int) -> None:
    """Check of a reported girth against the sphere sizes.

    In a k-regular graph of girth g the ball of radius (g - 1) // 2 is a
    tree, so |S_d| = k (k - 1)^(d - 1) for every 1 <= d <= (g - 1) // 2.
    Checks the levels that were computed; raises AssertionError on a mismatch.
    _bfs's collision rule fires only when a level has fewer new elements
    than the tree count, so a level with too many (a stray element that a
    store put in) passes the rule silently; this check catches it.
    """
    for d in range(1, min((girth - 1) // 2, len(sizes) - 1) + 1):
        want = k * (k - 1) ** (d - 1)
        if sizes[d] != want:
            raise AssertionError(
                f"sphere of radius {d} has {sizes[d]} elements, but girth {girth} "
                f"at degree {k} requires {want}"
            )


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
    the simple graph); without it they are simply absorbed.  The girth comes
    from _bfs's collision rule on the level sizes, over either visited set,
    and is checked against the sphere sizes (_check_sphere_sizes).  Frontier
    search stores one code per orbit of the automorphisms that permute the
    generators (_symmetries), unless collect asks for every code; order,
    sphere_sizes and max_frontier count elements either way, and only
    peak_bytes, the charge of the codes kept, reflects the orbits.
    girth_only stops at the first cycle, so it needs want_girth.  Element
    codes must fit in 63 bits: a larger code space raises
    BudgetExceededError at depth 0.
    """
    if not generators:
        raise ParameterError("need at least one generator")
    if girth_only and not want_girth:
        raise ParameterError("girth_only needs want_girth")
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
    # the second test matters only for n = 1, where a product entry (m - 1)^2
    # can overflow int64 although the code fits
    if m ** (n * n) > 2**63 or n * (m - 1) ** 2 >= 2**63:
        raise BudgetExceededError(
            0, 1, f"element codes or their products need more than 63 bits at n={n}, m={m}"
        )
    # the table needs ranked elements and 3 bytes per index beside the rank
    # tables; a girth-only search stops at a ball far smaller than the
    # group, so it never pays for a table over the whole index space
    index = None if girth_only else _table_index(gens)
    if index and 3 * index[0] + index[1] > memory_budget:
        index = None
    res = _bfs(
        _Levels(gens, collect) if index is None else _Table(gens, index),
        len(gens),
        want_girth=want_girth,
        girth_only=girth_only,
        collect=collect,
        memory_budget=memory_budget,
    )
    if res.girth is not None:
        _check_sphere_sizes(res.sphere_sizes, res.degree, res.girth)
    return res


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
    pair = generator_pair(spec.n, spec.l, spec.a, spec.b, allow_small=True)
    X, Y = (modmat.reduce(M, m) for M in pair)
    if X.is_identity() or Y.is_identity():
        if spec.a % m and spec.b % m:
            raise DegenerateSpecError(
                f"A^l or B^l reduces to the identity mod {m} at l={spec.l}, "
                f"although a, b != 0 (mod {m})"
            )
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
) -> CayleyStats:
    """Order, girth, diameter, and ratio for one modulus, from a single BFS.

    A degenerate generator pair raises DegenerateSpecError and an exhausted
    budget BudgetExceededError; dg_table turns either into an error row.
    """
    t0 = time.perf_counter()
    X, Y = spec_generators(spec, m)
    res = bfs([X, Y], want_girth=True, memory_budget=memory_budget)
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
    """One stats row per modulus, ascending.  A modulus whose generators are
    degenerate or whose BFS exceeds the budget gets a row with only its error,
    and the sweep goes on."""
    rows = []
    for p in sorted(primes):
        try:
            rows.append(cayley_stats(spec, p, memory_budget=memory_budget))
        except (DegenerateSpecError, BudgetExceededError) as exc:
            rows.append(CayleyStats(spec.n, spec.l, spec.a, spec.b, p, error=str(exc)))
    return rows


def neighbour_map(
    gens: Sequence[ModMatrix], res: BfsResult, *, memory_budget: int
) -> np.ndarray:
    """Positions in res.codes of every vertex's neighbours, a (k, N) int64 array.

    gens are the k symmetrized generators of the collected BFS res, and row j
    holds the position of M g_j for every M of the N sorted codes: one
    contiguous row per generator, from which k gathers of whole rows are about
    3x faster than one gather of an (N, k) block.  The targets come from
    _product_action as a (k, N) block, and one searchsorted finds all their
    positions.  Before anything is allocated, 8 N (k + max(n^2 + 4, k + 3, 7))
    bytes are charged to memory_budget: beside the codes and the targets,
    first n^2 + 3 vectors for the kernel's n^2 digit arrays and its two
    scratch vectors (of one _ACT_BLOCK block, so past 2^15 vertices this
    part is more than they take), then the positions and one row's
    membership check, and, once the codes and the
    targets are freed, the seven float64 vectors that spectral's Lanczos
    holds beside the positions.  Raises BudgetExceededError, at
    the BFS's full depth, when they do not fit, and AssertionError when a
    neighbour is not among the codes.

    The positions are not written over the targets: freeing the targets'
    block, k vectors long, lifts glibc's mmap threshold above one vector, so
    the vectors that Lanczos allocates at every step reuse the heap.  Written
    in place, spectral at p = 53 took 42,000 more page faults, 0.1 s.
    """
    codes = res.codes
    n, m, k, N = gens[0].n, gens[0].m, len(gens), len(codes)
    charge = 8 * N * (k + max(n * n + 4, k + 3, 7))
    if charge > memory_budget:
        raise BudgetExceededError(
            res.diameter, N, f"the neighbour map of {N} vertices needs {charge} bytes"
        )
    tgts = _product_action(n, m, gens)(codes).T
    nbr = codes.searchsorted(tgts)
    for at, row in zip(nbr, tgts):
        # a target past the last code gets N: clamped, it fails the check
        np.minimum(at, N - 1, out=at)
        if not bool((codes[at] == row).all()):
            raise AssertionError("neighbour landed outside the enumerated group")
    return nbr


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
    nbr = neighbour_map(symmetrize(generators), res, memory_budget=memory_budget)
    # each edge {M, M g} once, keyed by its (smaller, larger) positions in
    # the sorted codes, so the keys sort as the code pairs do; an identity
    # generator adds only loops
    N = res.order
    at = np.arange(N)
    keys = np.unique((np.minimum(nbr, at) * N + np.maximum(nbr, at))[nbr != at])
    codes = res.codes.tolist()
    lines = ["graph cayley {"]
    lines += [f'  v{code} [label="{code}"];' for code in codes]
    lines += [f"  v{codes[key // N]} -- v{codes[key % N]};" for key in keys.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"
