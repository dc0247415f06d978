"""Cayley graph BFS: closure, girth, diameter, tables, export."""

import functools
import hashlib
import itertools
import math
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from girthlab import cayley, modmat, words
from girthlab.cayley import (
    BudgetExceededError,
    DegenerateSpecError,
    cayley_stats,
    closure,
    dg_table,
    diameter,
    export_dot,
    girth,
    spec_generators,
    symmetrize,
)
from girthlab.exactmat import ParameterError
from girthlab.modmat import ModMatrix, group_order_sl
from girthlab.params import validate

SPEC2 = validate(2, 1, 2, 2)
SPEC3 = validate(3, 4, 4, 2)


def s3_generators():
    return [
        ModMatrix.from_rows([[1, 1], [0, 1]], 2),
        ModMatrix.from_rows([[1, 0], [1, 1]], 2),
    ]


def klein_k4_generators():
    # unit-scalar matrices mod 8: {1,3,5,7} under multiplication is the
    # Klein four group; three involutions give the complete graph K4
    return [ModMatrix.from_rows([[u, 0], [0, u]], 8) for u in (3, 5, 7)]


def test_closure_examples():
    X, Y = spec_generators(SPEC2, 5)
    assert closure([X, Y]) == 120
    X3, Y3 = spec_generators(SPEC3, 3)
    assert closure([X3, Y3]) == 5616
    assert closure([ModMatrix.identity(2, 5)]) == 1


def test_girth_examples():
    X, Y = spec_generators(SPEC2, 3)
    assert girth([X, Y]) == 3
    assert girth(s3_generators()) == 6


def test_girth_rejects_identity_generator():
    with pytest.raises(DegenerateSpecError):
        girth([ModMatrix.identity(2, 5)])


def test_diameter_examples():
    assert diameter(s3_generators()) == 3
    assert diameter(klein_k4_generators()) == 1
    X, Y = spec_generators(SPEC2, 3)
    d = diameter([X, Y])
    assert 4 * 3**d >= 24 - 1


def test_spec_generators_degenerate_cases():
    with pytest.raises(DegenerateSpecError):
        spec_generators(SPEC2, 2)  # a = b = 2 reduce to the identity


def test_symmetrize_dedupes():
    gens = symmetrize(s3_generators())
    assert len(gens) == 2  # both are involutions
    X, Y = spec_generators(SPEC2, 5)
    assert len(symmetrize([X, Y])) == 4


def test_cayley_stats_row():
    row = cayley_stats(SPEC3, 3)
    assert row.order == 5616
    assert row.generated_full is True
    assert row.girth is not None and row.diameter is not None
    assert row.dg_ratio == row.diameter / row.girth or float(row.dg_ratio) == pytest.approx(
        row.diameter / row.girth
    )


def test_dg_table_examples():
    rows = dg_table(SPEC2, [5, 7, 11, 13])
    assert len(rows) == 4
    assert all(r.generated_full for r in rows)
    assert [r.m for r in rows] == [5, 7, 11, 13]
    assert dg_table(SPEC2, []) == []


def test_dg_table_error_rows_do_not_abort():
    rows = dg_table(SPEC2, [2, 5])
    assert rows[0].error is not None and rows[0].m == 2
    assert rows[1].error is None and rows[1].order == 120


def test_cayley_stats_raises_where_dg_table_records_the_error():
    # 2 divides a = b = 2, so both generators reduce to the identity mod 2
    with pytest.raises(DegenerateSpecError) as exc:
        cayley_stats(SPEC2, 2)
    (row,) = dg_table(SPEC2, [2])
    assert row == cayley.CayleyStats(2, 1, 2, 2, 2, error=str(exc.value))
    with pytest.raises(BudgetExceededError) as exc:
        cayley_stats(SPEC2, 5, memory_budget=1000)
    (row,) = dg_table(SPEC2, [5], memory_budget=1000)
    assert row == cayley.CayleyStats(2, 1, 2, 2, 5, error=str(exc.value))


def test_ball_volume_bound():
    for row in dg_table(SPEC2, [3, 5, 7, 11, 13, 17, 19, 23]):
        assert row.degree == 4
        assert 4 * 3**row.diameter >= row.order - 1
        assert row.order <= group_order_sl(2, row.m)
        assert (row.order == group_order_sl(2, row.m)) == row.generated_full


def test_girth_cross_validates_with_spectral_bound():
    from girthlab.spectral import girth_lower_bound

    for p in (5, 11, 17):
        X, Y = spec_generators(SPEC2, p)
        assert girth([X, Y]) >= girth_lower_bound(SPEC2, p).bound_reported


def test_determinism():
    r1 = cayley_stats(SPEC2, 13)
    r2 = cayley_stats(SPEC2, 13)
    assert (r1.order, r1.girth, r1.diameter, r1.peak_bytes) == (
        r2.order,
        r2.girth,
        r2.diameter,
        r2.peak_bytes,
    )


def _bfs_reference(generators):
    # pure-Python dictionary BFS, one element at a time, with the engines'
    # non-backtracking collision rule; girth tracking stops at the first cycle
    gens = symmetrize(generators)
    n, m = gens[0].n, gens[0].m
    rows = [g.entries for g in gens]
    inv_of = [
        next(j for j, h in enumerate(gens) if h.entries == g.inverse().entries)
        for g in gens
    ]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][x] * b[x][j] for x in range(n)) % m for j in range(n))
            for i in range(n)
        )

    ident = ModMatrix.identity(n, m).entries
    dist = {ident: 0}
    frontier = [(ident, -1)]
    sizes = [1]
    girth_found = None
    d = 0
    while True:
        track = girth_found is None
        nxt, cands = [], []
        for v, arr in frontier:
            par = mul(v, rows[inv_of[arr]]) if (track and arr >= 0) else None
            for j, g in enumerate(rows):
                t = mul(v, g)
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
        if cands:
            girth_found = min(cands)
        if not nxt:
            break
        frontier = nxt
        sizes.append(len(nxt))
        d += 1
    return SimpleNamespace(
        order=len(dist),
        girth=girth_found,
        diameter=d,
        max_frontier=max(sizes),
        sphere_sizes=tuple(sizes),
        codes=sorted(modmat.encode(ModMatrix(n, m, v)) for v in dist),
    )


def _engine(gens, *, table, **kw):
    # the one BFS loop over a visited set that the test picks: the rank
    # table, indexed as bfs() would index it, or the sorted levels of
    # frontier search
    index = cayley._table_index(gens) if table else None
    assert index is not None or not table, "unranked elements have no table"
    store = cayley._Table(gens, index) if table else cayley._Levels(gens, kw["collect"])
    return cayley._bfs(store, len(gens), **kw)


class _SetStore:
    """A visited set of element codes in a Python set, with only the four
    members that _bfs reads: charge, advance, hits and codes.  Its charge is
    the width of level d plus order, recorded in _charges.  advance records
    track in _tracks and keeps level d for hits only while track is set; hits
    records the depth of the level d that it reads in _hits."""

    def __init__(self, gens):
        self._gens = gens
        self._cur = [modmat.encode(ModMatrix.identity(gens[0].n, gens[0].m))]
        self._prev = None
        self._seen = set(self._cur)
        self._charges = []
        self._tracks = []
        self._hits = []

    def _targets(self, level):
        n, m = self._gens[0].n, self._gens[0].m
        return {modmat.encode(modmat.decode(c, n, m) @ g) for c in level for g in self._gens}

    def charge(self, order):
        self._charges.append(len(self._cur) + order)
        return self._charges[-1]

    def advance(self, order, track):
        self._tracks.append(track)
        self._prev = self._cur if track else None
        self._cur = sorted(self._targets(self._cur) - self._seen)
        self._seen.update(self._cur)
        return len(self._cur)

    def hits(self):
        # level d is the one the last advance built level d + 1 from
        self._hits.append(len(self._tracks) - 1)
        return not self._targets(self._prev).isdisjoint(self._prev)

    def codes(self):
        return np.array(sorted(self._seen), dtype=np.int64)


@pytest.mark.parametrize("want_girth,girth_only", [(False, False), (True, False), (True, True)])
def test_a_store_of_four_members_drives_the_loop(want_girth, girth_only):
    # _bfs reads a store only through charge, advance, hits and codes:
    # _SetStore, passed straight to the loop, gives the reference's order,
    # girth, diameter, sphere sizes and codes, or, girth-only, the levels up
    # to the first cycle.  Even (SL_2(F_7), 6) and odd girths (SL_2(F_11), 9;
    # SL_3(F_3), 3).  advance is told to track the girth exactly while it is
    # open, and hits is called once per tracked sweep, at the level where
    # the first cycle closes
    kw = dict(want_girth=want_girth, girth_only=girth_only, collect=True, memory_budget=1 << 30)
    for spec, m in ((SPEC2, 7), (SPEC2, 11), (SPEC3, 3)):
        gens = symmetrize(spec_generators(spec, m))
        ref = _bfs_reference(gens)
        store = _SetStore(gens)
        res = cayley._bfs(store, len(gens), **kw)
        depth = len(res.sphere_sizes)
        assert res.sphere_sizes == ref.sphere_sizes[:depth], (m, res.sphere_sizes)
        assert res.order == sum(res.sphere_sizes)
        assert res.girth == (ref.girth if want_girth else None)
        assert res.peak_bytes == max(store._charges)
        last = (ref.girth - 1) // 2 if want_girth else -1
        assert store._tracks == [d <= last for d in range(depth)]
        assert store._hits == ([last] if want_girth else [])
        if girth_only:
            assert (res.diameter, res.codes) == (None, None)
            assert depth == (ref.girth - 1) // 2 + 1
        else:
            assert (res.order, res.diameter, res.max_frontier) == (
                ref.order,
                ref.diameter,
                ref.max_frontier,
            )
            assert res.codes.tolist() == ref.codes


def test_dense_and_sparse_paths_agree():
    X, Y = spec_generators(SPEC2, 7)
    ref = _bfs_reference([X, Y])
    gens = symmetrize([X, Y])
    kw = dict(want_girth=True, collect=False, memory_budget=1 << 20)
    dense = _engine(gens, table=True, girth_only=False, **kw)
    sparse = _engine(gens, table=False, girth_only=False, **kw)
    for res in (dense, sparse):
        assert (res.order, res.girth, res.diameter) == (ref.order, ref.girth, ref.diameter)
    # the girth-only early return: both stores stop at the same level, inside
    # the reference ball; the table's charge starts from its 7^3 ranks and
    # the 16 * 4 * 7^2 bytes of the rank action's tables.  Frontier search
    # keeps one code per orbit of its four maps: levels 1 and 2 hold 1 and
    # 3 codes, 9 bytes per target of level 2 (a code and a mask byte), and
    # canon's block of its 12 targets, of 10 vectors (the kernel's 4 digit
    # arrays, a quotient and two scratch vectors, and the 3 maps' images)
    # and two masks, or level 3's copy out of the targets, at most
    # 8 (4 - 1) bytes per code of level 2
    dense = _engine(gens, table=True, girth_only=True, **kw)
    sparse = _engine(gens, table=False, girth_only=True, **kw)
    for res, peak in (
        (dense, 7**3 + 16 * 4 * 7**2 + 9 * 12 + 8 * 4 * 12),
        (sparse, 8 * (1 + 3) + 9 * 4 * 3 + max((8 * 10 + 2) * 12, 8 * (4 - 1) * 3)),
    ):
        assert (res.order, res.girth, res.sphere_sizes) == (
            dense.order,
            dense.girth,
            dense.sphere_sizes,
        )
        assert res.girth == ref.girth
        assert res.sphere_sizes == ref.sphere_sizes[: len(res.sphere_sizes)]
        assert res.order == sum(ref.sphere_sizes[: len(res.sphere_sizes)])
        assert res.peak_bytes == peak


def test_budget_exceeded_carries_partial_info():
    X, Y = spec_generators(SPEC2, 61)
    with pytest.raises(BudgetExceededError) as exc:
        cayley.bfs([X, Y], memory_budget=200_000)
    assert exc.value.depth_reached >= 1
    assert exc.value.order_so_far > 0


def test_default_memory_budget_reads_meminfo(monkeypatch, tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8222320 kB\nMemAvailable:    4194304 kB\n")
    assert cayley._mem_available(str(meminfo)) == 4 << 30
    meminfo.write_text("MemTotal:        8222320 kB\n")
    assert cayley._mem_available(str(meminfo)) is None
    assert cayley._mem_available(str(tmp_path / "absent")) is None
    monkeypatch.setattr(cayley, "_mem_available", lambda: 4 << 30)
    assert cayley._default_memory_budget() == 3 << 30
    monkeypatch.setattr(cayley, "_mem_available", lambda: None)
    assert cayley._default_memory_budget() == 8 << 30


def test_export_dot_small_graph():
    X, Y = spec_generators(SPEC2, 3)
    dot = export_dot([X, Y])
    assert dot.startswith("graph cayley {")
    assert dot.count(" -- ") == 24 * 4 // 2
    assert dot == export_dot([X, Y])


def test_export_dot_rejects_large():
    X, Y = spec_generators(SPEC2, 23)
    with pytest.raises(ParameterError):
        export_dot([X, Y])


def test_girth_of_inverse_pair_cycle():
    # X = Y^-1 degenerates to a single cyclic generator: the graph is a cycle
    X = ModMatrix.from_rows([[1, 1], [0, 1]], 5)
    Y = X.inverse()
    assert girth([X, Y]) == 5
    assert diameter([X, Y]) == 2


def test_girth_large_prime_beats_spectral_bound():
    # the 1009 code space is far beyond the dense table: sparse path with
    # early stop at the first collision level
    from girthlab.spectral import girth_lower_bound

    X, Y = spec_generators(SPEC2, 1009)
    g = girth([X, Y])
    assert g >= girth_lower_bound(SPEC2, 1009).bound_reported


def test_girth_none_for_acyclic_graph():
    # a single involution generates a two-vertex, one-edge graph: no cycle
    M = ModMatrix.from_rows([[4, 0], [0, 4]], 5)
    assert girth([M]) is None
    assert diameter([M]) == 1
    assert closure([M]) == 2


def test_girth_and_diameter_against_networkx():
    # independent oracle on random generator sets over small moduli, with at
    # least ten cases through the rank table (determinant-1 sets mod 3 or 5)
    # and ten unranked ones (determinant != 1, or m = 4), which only
    # frontier search sweeps
    import random

    import networkx as nx

    rng = random.Random(314)
    cases = {True: 0, False: 0}  # by whether the elements are ranked
    while min(cases.values()) < 10:
        m = rng.choice([3, 4, 5])
        rows = [[rng.randrange(m) for _ in range(2)] for _ in range(2)]
        try:
            g1 = ModMatrix.from_rows(rows, m)
            g1.inverse()
        except Exception:
            continue
        if g1.is_identity():
            continue
        shear = ModMatrix.from_rows([[1, rng.randrange(1, m)], [0, 1]], m)
        gens = [g1, shear]
        res = cayley.bfs(gens, want_girth=True, collect=True)
        if res.order > 3000:
            continue
        G = nx.Graph()
        for code in [int(c) for c in res.codes]:
            M = modmat.decode(code, 2, m)
            for g in symmetrize(gens):
                t = modmat.encode(M @ g)
                if t != code:
                    G.add_edge(code, int(t))
        if res.order == 1:
            continue
        expect_girth = nx.girth(G)
        expect_diameter = nx.diameter(G)
        got = math.inf if res.girth is None else res.girth
        assert got == expect_girth, (rows, m, got, expect_girth)
        assert res.diameter == expect_diameter
        assert res.order == G.number_of_nodes()
        ranked = cayley._table_index(symmetrize(gens)) is not None
        assert ranked == (m != 4 and g1.det() == 1)
        if ranked:
            # the rank table collects the same sorted codes, spheres, girth
            # and diameter as frontier search
            by_code = _engine(
                symmetrize(gens),
                table=False,
                want_girth=True,
                girth_only=False,
                collect=True,
                memory_budget=1 << 30,
            )
            assert (by_code.sphere_sizes, by_code.girth, by_code.diameter) == (
                res.sphere_sizes,
                res.girth,
                res.diameter,
            )
            assert by_code.codes.dtype == res.codes.dtype == np.int64
            assert np.array_equal(by_code.codes, res.codes)
        # each store's collision rule against the same oracle, also on the
        # girth-only early return
        for table in (True, False) if ranked else (False,):
            for girth_only in (False, True):
                res = _engine(
                    symmetrize(gens),
                    table=table,
                    want_girth=True,
                    girth_only=girth_only,
                    collect=False,
                    memory_budget=1 << 30,
                )
                got = math.inf if res.girth is None else res.girth
                assert got == expect_girth, (rows, m, table, girth_only, got)
                if not girth_only:
                    assert (res.order, res.diameter) == (G.number_of_nodes(), expect_diameter)
        cases[ranked] += 1


def test_composite_modulus_closure():
    spec = validate(2, 1, 2, 2)
    X, Y = spec_generators(spec, 9)
    row = cayley_stats(spec, 9)
    assert row.generated_full is None  # no closed-form target mod 9
    assert row.order == closure([X, Y])
    assert row.girth is not None


# rows per block of _top_action's tables over the n - 1 top rows for four
# generators: a block's table holds m^(n r) codes of 4 int64 targets
# within 256 KiB
ROW_BLOCKS = {
    (3, 4): [2],
    (4, 3): [2, 1],  # SL_4(F_3): tables of 6,561 and 81 codes
    (5, 2): [2, 2],
    (3, 3): [2],
    (3, 7): [1, 1],  # 7^6 codes would take 3.8 MB: one row per block
}


@pytest.mark.parametrize("n,m", list(ROW_BLOCKS))
def test_top_action_matches_matrix_product(n, m):
    # a top is the code of rows 0..n-2, an element whose last row is zero,
    # so the top of M g is the code of M g; the action scales it by m^(n-1),
    # its place weight in an SL_n rank.  Any matrices act, singular ones and
    # composite moduli included
    rng = np.random.default_rng(1000 * n + m)
    gens = [
        ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m) for _ in range(4)
    ]
    assert cayley._row_blocks(n, m, len(gens)) == ROW_BLOCKS[n, m]
    # the lowest and highest tops, whose block digits are all 0 or all m^(n r) - 1
    space = m ** (n * (n - 1))
    tops = np.concatenate([[0, space - 1], rng.integers(0, space, size=300)])
    tgts = cayley._top_action(n, m, gens)(tops)
    assert tgts.shape == (302, 4)
    for j, g in enumerate(gens):
        want = [m ** (n - 1) * modmat.encode(modmat.decode(c, n, m) @ g) for c in tops.tolist()]
        assert tgts[:, j].tolist() == want


@pytest.mark.parametrize(
    "n,m",
    [(2, 6), (3, 4), (4, 3), (5, 2), (2, 101), (1, 10_007), (2, 1009), (2, 7), (2, 55_103)],
)
def test_product_action_matches_matrix_product(n, m):
    # random matrices, singular ones and zero entries included, so that the
    # kernel's skipped zero terms and lone digits are all exercised; the
    # lowest and highest codes, whose digits are all 0 or all m - 1, and at
    # m = 55,103 a code space just below 2^63
    rng = np.random.default_rng(1000 * n + m)
    gens = [
        ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m) for _ in range(3)
    ]
    codes = np.concatenate([[0, m ** (n * n) - 1], rng.integers(0, m ** (n * n), size=300)])
    tgts = cayley._product_action(n, m, gens)(codes)
    assert tgts.shape == (302, 3)
    for j, g in enumerate(gens):
        want = [modmat.encode(modmat.decode(c, n, m) @ g) for c in codes.tolist()]
        assert tgts[:, j].tolist() == want


@pytest.mark.parametrize("n,m", [(2, 1009), (3, 127)])
@pytest.mark.parametrize("codes_per_block", [7, None])
def test_product_action_fills_a_block_in_place(n, m, codes_per_block, monkeypatch):
    # act(codes, out=block) writes the whole (k, L) block, a view inside a
    # larger array as frontier search passes it, returns its transposed view
    # and touches nothing around it; the zero matrix's column, which has no
    # entry to add, is filled too.  With blocks of 7 codes, the 50 codes
    # take eight blocks, the last one short
    if codes_per_block:
        monkeypatch.setattr(cayley, "_ACT_BLOCK", codes_per_block)
    rng = np.random.default_rng(n + m)
    gens = [
        ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m) for _ in range(3)
    ]
    gens.append(ModMatrix.from_rows([[0] * n] * n, m))
    act = cayley._product_action(n, m, gens)
    codes = rng.integers(0, m ** (n * n), size=50)
    joined = np.full(4 * 80, -1, dtype=np.int64)
    block = joined[40 : 40 + 4 * 50].reshape(4, 50)
    got = act(codes, out=block)
    assert np.shares_memory(got, block) and got.shape == (50, 4)
    assert np.array_equal(got, act(codes))
    assert (got[:, 3] == 0).all()
    assert (joined[:40] == -1).all() and (joined[40 + 4 * 50 :] == -1).all()
    for j, g in enumerate(gens[:3]):
        want = [modmat.encode(modmat.decode(c, n, m) @ g) for c in codes.tolist()]
        assert got[:, j].tolist() == want


@pytest.mark.parametrize("n,m", [(2, 101), (3, 127)])
def test_code_action_does_not_depend_on_the_order_of_a_plan(n, m):
    # the place weight m^0 = 1 belongs to entry (0, 0) alone, which the
    # plans of _product_action and _Orbits list first; listed backwards, a
    # plan's entry (0, 0) is added last, at weight 1, and the images are the
    # same.  For n = 3 one more plan reads 2 x 2 minors, as sigma's does
    rng = np.random.default_rng(n + m)
    gens = [
        ModMatrix.from_rows(rng.integers(1, m, size=(n, n)).tolist(), m) for _ in range(3)
    ]
    plans = [
        [
            (m ** (n * r + x), [(n * r + c, g.entries[c][x]) for c in range(n)])
            for r in range(n)
            for x in range(n)
        ]
        for g in gens
    ]
    if n == 3:
        plans.append([(m ** src, [(n * n + src, 1 + src)]) for src in range(n * n)])
    assert all(plan[0][0] == 1 for plan in plans)
    codes = np.concatenate([[0, m ** (n * n) - 1], rng.integers(0, m ** (n * n), size=300)])
    ordered = cayley._code_action(n, m, plans)(codes)
    backwards = cayley._code_action(n, m, [plan[::-1] for plan in plans])(codes)
    assert np.array_equal(ordered, backwards)
    for j, g in enumerate(gens):
        want = [modmat.encode(modmat.decode(c, n, m) @ g) for c in codes.tolist()]
        assert ordered[:, j].tolist() == want


@pytest.mark.parametrize("spec,m", [(SPEC3, 3), (SPEC2, 9), (SPEC2, 10), (SPEC2, 11)])
def test_dense_and_sparse_engines_agree_past_depth_three(spec, m):
    # the dense table holds one visited byte and no depth, so the collision
    # rule reads level sizes at every depth; at p = 11 the first cycle
    # (girth 9) closes at depth 4, where the table's probe finds it odd.
    # The composite moduli 9 and 10 have no ranks: frontier search alone
    gens = symmetrize(spec_generators(spec, m))
    ranked = cayley._table_index(gens) is not None
    assert ranked == (m not in (9, 10))
    kw = dict(want_girth=True, girth_only=False, collect=True, memory_budget=1 << 30)
    ref = _bfs_reference(gens)
    assert ref.diameter > 3
    for table in (True, False) if ranked else (False,):
        res = _engine(gens, table=table, **kw)
        assert (res.order, res.girth, res.diameter, res.max_frontier) == (
            ref.order,
            ref.girth,
            ref.diameter,
            ref.max_frontier,
        )
        assert res.sphere_sizes == ref.sphere_sizes
        assert res.codes.dtype == np.int64
        assert res.codes.tolist() == ref.codes


def test_frontier_chunks_do_not_change_the_result(monkeypatch):
    # chunks of 5 elements split every level, so next-level duplicates (the
    # girth-9 collision at p = 11) arrive from different chunks; the default
    # chunks and chunks at least as wide as the widest level must give the
    # same graph.  Both stores over SL_2 ranks (p = 11, 13) and SL_3 ranks
    # (SL_3(F_3)), frontier search alone over the composite modulus 9; the
    # spy records how many elements each act gets.  A level that the table
    # takes bottom-up is never acted on, so its width, split into the
    # table's chunks, is recorded where scan starts: a level that only scan
    # follows is not even built, and only its width is kept
    widths = []
    for store in (cayley._Table, cayley._Levels):

        def init(self, *args, init=store.__init__):
            init(self, *args)
            act = self.act

            def spy(indices, **out):
                # frontier search passes out=, the table's rank act takes none
                widths.append(len(indices))
                return act(indices, **out)

            self.act = spy

        monkeypatch.setattr(store, "__init__", init)

    def spy_scan(self, width, order, scan=cayley._Table.scan):
        widths.append(min(width, self.chunk))
        return scan(self, width, order)

    monkeypatch.setattr(cayley._Table, "scan", spy_scan)
    kw = dict(want_girth=True, girth_only=False, collect=True, memory_budget=1 << 30)
    for spec, m in ((SPEC2, 11), (SPEC2, 13), (SPEC3, 3), (SPEC2, 9)):
        gens = symmetrize(spec_generators(spec, m))
        ranked = cayley._table_index(gens) is not None
        assert ranked == (m != 9)
        ref = _bfs_reference(gens)
        k = len(gens)
        for chunk in (5, None, ref.max_frontier):
            for table in (False, True) if ranked else (False,):
                # each store's own chunk: the table's from _TARGET_BYTES
                with monkeypatch.context() as mp:
                    if chunk and table:
                        mp.setattr(cayley, "_TARGET_BYTES", 8 * k * chunk)
                    elif chunk:
                        mp.setattr(cayley, "_CHUNK", chunk)
                    default = cayley._TARGET_BYTES // (8 * k) if table else cayley._CHUNK
                    widths.clear()
                    res = _engine(gens, table=table, **kw)
                assert (res.order, res.girth, res.diameter, res.sphere_sizes) == (
                    ref.order,
                    ref.girth,
                    ref.diameter,
                    ref.sphere_sizes,
                ), (m, chunk, table)
                assert res.codes.tolist() == ref.codes
                assert max(widths) == min(chunk or default, ref.max_frontier)


def _random_sl(n, m, count, rng):
    """count random non-identity elements of SL_n(F_m)."""
    out = []
    while len(out) < count:
        g = ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m)
        if g.det() == 1 and not g.is_identity():
            out.append(g)
    return out


def _table_cases():
    """Random generator sets over SL_2 ranks (p <= 13) and SL_3(F_3), the
    paper's SL_3(F_3) pair, and proper subgroups whose unvisited ranks never
    run out: the upper triangular pair mod 7 (order 42) and the
    unitriangular pair mod 3 (order 27), last."""
    rng = np.random.default_rng(21)
    cases = [_random_sl(2, m, count, rng) for m in (2, 3, 5, 7, 11, 13) for count in (1, 2)]
    cases += [_random_sl(3, 3, 2, rng), list(spec_generators(SPEC3, 3))]
    cases.append([ModMatrix.from_rows(r, 7) for r in ([[1, 1], [0, 1]], [[3, 0], [0, 5]])])
    cases.append(
        [
            ModMatrix.from_rows(r, 3)
            for r in ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        ]
    )
    return cases


@pytest.mark.parametrize("want_girth", [False, True])
def test_bottom_up_at_every_level_matches_the_reference(monkeypatch, want_girth):
    # the switch forced on, so the table builds every level, the empty one
    # past the diameter included, by scan: an unvisited index is in level
    # d + 1 when a target of it is visited.  The generator sets of
    # _table_cases.  Each sweep runs with the default blocks and chunks, and
    # with scan blocks of 64 ranks and chunks of 5, so a level's new indices
    # come from many of both.  No unused rank (a top whose cofactor vector
    # is 0) reaches the rank action or comes out of scan, and codes() drops
    # the unused ranks that the table marks visited
    cases = _table_cases()
    scans, orders = [], []

    def used(table, ranks):
        # the table holds one row of ranks per top
        tops = np.asarray(ranks) // (len(table.seen) // len(table.cls))
        return (table.cls[tops] != 0).all()

    def spy(self, order, track, advance=cayley._Table.advance):
        size = advance(self, order, track)
        nxt = self.cur
        assert (np.diff(nxt) > 0).all() and nxt.dtype == np.int32
        assert used(self, nxt)
        assert size == len(nxt)
        scans.append(len(nxt))
        return size

    def init(self, gens, index, init=cayley._Table.__init__):
        init(self, gens, index)
        act = self.act

        def checked(ranks):
            assert used(self, ranks)
            return act(ranks)

        self.act = checked

    monkeypatch.setattr(cayley._Table, "__init__", init)
    monkeypatch.setattr(cayley._Table, "bottom_up", lambda self, width, order: True)
    monkeypatch.setattr(cayley._Table, "advance", spy)
    kw = dict(want_girth=want_girth, girth_only=False, collect=True, memory_budget=1 << 30)
    for gens, small in itertools.product(cases, (False, True)):
        gens = symmetrize(gens)
        n, m = gens[0].n, gens[0].m
        ref = _bfs_reference(gens)
        scans.clear()
        with monkeypatch.context() as mp:
            if small:
                mp.setattr(cayley, "_SCAN_BYTES", 64)
                mp.setattr(cayley, "_TARGET_BYTES", 8 * len(gens) * 5)
            res = _engine(gens, table=True, **kw)
        assert scans == list(ref.sphere_sizes[1:]) + [0]
        assert (res.order, res.diameter, res.max_frontier, res.sphere_sizes) == (
            ref.order,
            ref.diameter,
            ref.max_frontier,
            ref.sphere_sizes,
        ), (gens, small)
        assert res.girth == (ref.girth if want_girth else None)
        assert res.codes.tolist() == ref.codes
        assert all(modmat.decode(c, n, m).det() == 1 for c in res.codes.tolist())
        orders.append(res.order)
    # the proper subgroups, each swept twice
    assert orders[-4:] == [42, 42, 27, 27]


def _threads(monkeypatch, cpus):
    """The threads that cayley starts, with cpus as the CPUs available."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cayley.threading, "Thread", Spy)
    return started


@pytest.mark.parametrize("want_girth", [False, True])
def test_split_at_every_level_matches_the_reference(monkeypatch, want_girth):
    # the 2^20 gate at 1, so the table expands every level in two halves,
    # the upper one on a worker, top-down and, at the tail or with the
    # switch forced on, bottom-up; the generator sets of _table_cases, with
    # default and small blocks and chunks.  A short switch interval
    # interleaves the halves, so both may keep an index that close drops
    started = _threads(monkeypatch, 2)
    monkeypatch.setattr(cayley, "_SPLIT", 1)
    kw = dict(want_girth=want_girth, girth_only=False, collect=True, memory_budget=1 << 30)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for gens, small, up in itertools.product(_table_cases(), (False, True), (False, True)):
            gens = symmetrize(gens)
            ref = _bfs_reference(gens)
            with monkeypatch.context() as mp:
                if small:
                    mp.setattr(cayley, "_SCAN_BYTES", 64)
                    mp.setattr(cayley, "_TARGET_BYTES", 8 * len(gens) * 5)
                if up:
                    mp.setattr(cayley._Table, "bottom_up", lambda self, width, order: True)
                res = _engine(gens, table=True, **kw)
            assert (res.order, res.diameter, res.max_frontier, res.sphere_sizes) == (
                ref.order,
                ref.diameter,
                ref.max_frontier,
                ref.sphere_sizes,
            ), (gens, small, up)
            assert res.girth == (ref.girth if want_girth else None)
            assert res.codes.tolist() == ref.codes
    finally:
        sys.setswitchinterval(interval)
    assert started and not any(t.is_alive() for t in started)


def test_close_drops_the_repeats_of_two_threads(monkeypatch):
    # the pieces of two threads' halves, which share some indices: close
    # returns the sorted distinct level when it looks for the repeats 1 to
    # 5 elements or the default chunk at a time, so also where a repeat and
    # its first copy lie in two chunks (every repeat, with chunks of 1); the
    # pieces of one thread it keeps as they are
    gens = symmetrize(spec_generators(SPEC2, 5))
    table = cayley._Table(gens, cayley._table_index(gens))
    rng = np.random.default_rng(22)
    level = np.sort(rng.choice(5**3, size=60, replace=False)).astype(np.int32)
    shared = level[::3]
    for chunk in (1, 2, 3, 4, 5, None):
        with monkeypatch.context() as mp:
            if chunk:
                mp.setattr(cayley, "_CHUNK", chunk)
            for _ in range(5):
                lower = rng.permutation(np.setdiff1d(level, shared[1::2]))
                upper = rng.permutation(np.union1d(np.setdiff1d(level, lower), shared[::2]))
                halves = [np.array_split(lower, 3), np.array_split(upper, 4)]
                nxt = table.close(halves)
                assert halves == [] and nxt.dtype == np.int32
                assert nxt.tolist() == level.tolist()
            joined = np.sort(np.concatenate([lower, upper]))
            assert table.close([[upper, lower[::-1]]]).tolist() == joined.tolist()


def test_one_cpu_runs_each_level_whole_here(monkeypatch):
    # with one CPU no level is split, the 2^20 gate at 1 included: each
    # level is acted on and visited in one piece in the calling thread, a
    # Thread that fails when called shows that none starts, and the results
    # equal those of two CPUs, whose worker takes the upper halves
    monkeypatch.setattr(cayley, "_SPLIT", 1)
    kw = dict(want_girth=True, girth_only=False, collect=True, memory_budget=1 << 30)
    gens = symmetrize(spec_generators(SPEC3, 3))
    spans = []

    def spy(self, start, stop, *step, work=cayley._Table._act_and_visit):
        spans.append((start, stop, len(self.cur)))
        return work(self, start, stop, *step)

    monkeypatch.setattr(cayley._Table, "_act_and_visit", spy)
    with monkeypatch.context() as mp:
        _threads(mp, 2)
        two = _engine(gens, table=True, **kw)
    assert any(start > 0 for start, _, _ in spans)

    def fail(*args, **kwargs):
        raise AssertionError("a thread was started on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cayley.threading, "Thread", fail)
    spans.clear()
    one = _engine(gens, table=True, **kw)
    assert spans and all(start == 0 and stop == width for start, stop, width in spans)
    assert (one.order, one.girth, one.diameter, one.sphere_sizes, one.peak_bytes) == (
        two.order,
        two.girth,
        two.diameter,
        two.sphere_sizes,
        two.peak_bytes,
    )
    assert one.codes.tolist() == two.codes.tolist()


# the SL_4(F_3) unit-band closure's sphere sizes, pinned in CI too
UNIT_BAND_SIZES = (
    1, 4, 12, 36, 108, 320, 944, 2784, 8208, 23937, 69009, 196716, 544172,
    1404468, 3054596, 4316098, 2329788, 178914, 445,
)


@functools.lru_cache(maxsize=None)
def _every_level_reference(case):
    """order, girth, diameter, sphere sizes and the SHA-256 of the codes of a
    case of test_a_level_that_only_scan_follows_is_never_built.  The unit
    band by the table with bottom_up off, which builds and closes every
    level top-down; SL_2(F_p) by frontier search, which keeps every code
    (the dictionary reference takes 5 s at p = 61 and 24 s at p = 101)."""
    with pytest.MonkeyPatch.context() as mp:
        if case == "unit band":
            gens = symmetrize([words._unit_band(4, 3, upper=u) for u in (True, False)])
            mp.setattr(cayley._Table, "bottom_up", lambda self, width, order: False)
        else:
            gens = symmetrize(spec_generators(SPEC2, case))
        kw = dict(want_girth=True, girth_only=False, collect=True, memory_budget=1 << 30)
        res = _engine(gens, table=case == "unit band", **kw)
    digest = hashlib.sha256(res.codes.tobytes()).hexdigest()
    return gens, (res.order, res.girth, res.diameter, res.sphere_sizes, digest)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("want_girth", [False, True])
def test_a_level_that_only_scan_follows_is_never_built(monkeypatch, want_girth, cpus):
    # top-down, the table gathers, concatenates and sorts level d + 1 (close)
    # only while the girth is tracked, as hits may read it, or when the step
    # after it is top-down too; a level that only scan follows is dropped,
    # and its successor is scanned.  While the girth is tracked the table
    # keeps level d for hits, and otherwise keeps no level but cur.  The
    # SL_4(F_3) unit band and (2, 1, 2, 2) at the primes 61..101, with every
    # level split (_SPLIT = 1) on two CPUs, where the count that drops a
    # level takes both halves, and whole on one.  With the rule forced on
    # from order 2 at p = 61, level 1 is kept for hits while the girth is
    # tracked, and dropped otherwise.  Order, girth, diameter, sphere sizes
    # and codes equal the reference's
    _threads(monkeypatch, cpus)
    monkeypatch.setattr(cayley, "_SPLIT", 1)
    steps = []  # per advance: track, and whether it scanned, closed, built cur

    def spy(name, real):
        def call(self, *args):
            steps[-1][name] = True
            return real(self, *args)

        monkeypatch.setattr(cayley._Table, name, call)

    spy("scan", cayley._Table.scan)
    spy("close", cayley._Table.close)

    def advance(self, order, track, real=cayley._Table.advance):
        steps.append(dict(track=track, scan=False, close=False))
        size = real(self, order, track)
        steps[-1]["built"] = self.cur is not None
        assert (self.prev is not None) == track
        return size

    monkeypatch.setattr(cayley._Table, "advance", advance)
    primes = [p for p in range(61, 102) if modmat.is_prime(p)]
    kw = dict(want_girth=want_girth, girth_only=False, collect=True, memory_budget=1 << 30)
    for case, forced in [("unit band", False)] + [(p, False) for p in primes] + [(61, True)]:
        gens, (order, girth_ref, diam, sizes, digest) = _every_level_reference(case)
        steps.clear()
        with monkeypatch.context() as mp:
            if forced:
                mp.setattr(cayley._Table, "bottom_up", lambda self, width, order: order > 1)
            res = _engine(gens, table=True, **kw)
        assert (res.order, res.girth, res.diameter, res.sphere_sizes) == (
            order,
            girth_ref if want_girth else None,
            diam,
            sizes,
        ), (case, forced)
        assert hashlib.sha256(res.codes.tobytes()).hexdigest() == digest
        # a top-down level is closed exactly when it is built, and built
        # exactly when the girth is tracked or the step after it is top-down
        top_down = [(step, after) for step, after in zip(steps, steps[1:]) if not step["scan"]]
        for step, after in top_down:
            assert step["close"] == step["built"] == (step["track"] or not after["scan"])
        # the girth is tracked up to level (girth - 1) // 2
        last = (girth_ref - 1) // 2 if want_girth else -1
        assert [step["track"] for step in steps] == [d <= last for d in range(len(steps))]
        # some level is dropped, but none while the girth is open
        assert any(not step["built"] for step, _ in top_down) != (forced and want_girth)
    assert _every_level_reference("unit band")[1][3] == UNIT_BAND_SIZES


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_either_half_reaches_bfs_and_the_worker_is_joined(monkeypatch, where):
    # an act that raises in one thread's half only: bfs raises it, and the
    # worker has ended, also when the calling thread's half raised first
    started = _threads(monkeypatch, 2)
    monkeypatch.setattr(cayley, "_SPLIT", 1)
    init = cayley._Table.__init__

    def failing(self, gens, index):
        init(self, gens, index)
        act = self.act

        def checked(ranks):
            main = threading.current_thread() is threading.main_thread()
            if main == (where == "caller"):
                raise RuntimeError(f"act failed in the {where}")
            return act(ranks)

        self.act = checked

    monkeypatch.setattr(cayley._Table, "__init__", failing)
    with pytest.raises(RuntimeError, match=f"act failed in the {where}"):
        cayley.bfs(spec_generators(SPEC3, 3))
    assert started and not any(t.is_alive() for t in started)


@pytest.mark.parametrize(
    "spec,m,expect_girth",
    [
        (SPEC2, 5, 5),
        (SPEC2, 7, 6),
        (SPEC2, 11, 9),
        (SPEC2, 13, 10),
        (SPEC2, 23, 12),
        (SPEC2, 61, 16),
        (SPEC3, 3, 3),
        (SPEC3, 5, 5),
    ],
)
def test_engines_agree_on_the_girth_only_early_return(monkeypatch, spec, m, expect_girth):
    # an even girth 2d + 2 is decided by a target reached twice from level
    # d: the dense table sees it placed by an earlier column, frontier
    # search as a repeat in the level's sorted targets
    gens = symmetrize(spec_generators(spec, m))
    kw = dict(want_girth=True, girth_only=True, collect=False, memory_budget=1 << 30)
    dense = _engine(gens, table=True, **kw)
    assert dense.girth == expect_girth
    for chunk in (cayley._CHUNK, 5):
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        sparse = _engine(gens, table=False, **kw)
        assert (sparse.girth, sparse.order, sparse.sphere_sizes) == (
            dense.girth,
            dense.order,
            dense.sphere_sizes,
        )


@pytest.mark.parametrize("p,expect_girth,ball", [(307, 18, 13_121), (401, 20, 39_365)])
def test_frontier_girth_ball_past_dense_limit(p, expect_girth, ball):
    X, Y = spec_generators(SPEC2, p)
    # a budget that holds the rank table and its action's tables: a
    # girth-only search still takes frontier search, whose ball is far
    # smaller than the group
    budget = 3 * p**3 + 16 * 4 * p**2
    res = cayley.bfs([X, Y], want_girth=True, girth_only=True, memory_budget=budget)
    assert res.peak_bytes < p**3  # no table, whose charge alone is p^3 bytes
    assert (res.girth, res.order) == (expect_girth, ball)
    # the girth closes at the first level past a tree ball
    tree = tuple([1] + [4 * 3 ** (d - 1) for d in range(1, len(res.sphere_sizes))])
    assert res.sphere_sizes == tree and sum(tree) == ball


@pytest.mark.parametrize("spec,m", [(SPEC2, 13), (SPEC3, 3)])
@pytest.mark.parametrize("want_girth", [False, True])
def test_table_and_levels_close_the_same_sorted_levels(monkeypatch, spec, m, want_girth):
    # both stores return each level sorted by index, so the table's levels,
    # unranked and sorted, equal the frontier's; while the girth is tracked
    # at a level, each of its elements has exactly one neighbour in the
    # previous level, which is why the collision rule needs no parent and
    # reads only the level sizes.  The table does not build a level that
    # only its scan follows: that level is recovered from the indices that
    # its advance newly visited
    gens = symmetrize(spec_generators(spec, m))
    n = gens[0].n
    assert cayley._table_index(gens) is not None
    act = cayley._product_action(n, m, gens)
    closed, probed, girths = {}, {}, {}
    scans = []  # one per call of the table's scan
    ups = []  # the table's choice at each level: bottom-up or not
    unbuilt = []  # the levels that the table did not build

    def spy_scan(self, width, order, scan=cayley._Table.scan):
        scans.append(width)
        return scan(self, width, order)

    monkeypatch.setattr(cayley._Table, "scan", spy_scan)
    for store in (cayley._Table, cayley._Levels):
        calls = closed[store] = []
        answers = probed[store] = []
        ranked = store is cayley._Table

        def spy(self, order, track, advance=store.advance, calls=calls, ranked=ranked):
            if ranked:
                seen, scanned = self.seen.copy(), len(scans)
            size = advance(self, order, track)
            nxt = self.cur
            if ranked:
                ups.append(len(scans) > scanned)
                new = np.flatnonzero(self.seen & ~seen)
                if nxt is None:
                    assert not track
                    unbuilt.append(len(calls))
                    nxt = new
                else:
                    # the table's levels hold 4-byte indices: m^3 and m^8
                    # ranks stay below 2^31
                    assert nxt.dtype == np.int32
                    assert np.array_equal(nxt, new)
                assert self.width == len(nxt)
            else:
                # frontier search keeps int64 codes
                assert nxt.dtype == np.int64
            assert (np.diff(nxt) > 0).all()  # sorted by index
            calls.append((np.sort(self.unrank(nxt)) if ranked else nxt, size))
            return size

        def spy_hits(self, hits=store.hits, answers=answers):
            answers.append(hits(self))
            return answers[-1]

        monkeypatch.setattr(store, "advance", spy)
        monkeypatch.setattr(store, "hits", spy_hits)
        kw = dict(want_girth=want_girth, girth_only=False, collect=False, memory_budget=1 << 30)
        girths[store] = _engine(gens, table=ranked, **kw).girth
    table, frontier = closed[cayley._Table], closed[cayley._Levels]
    assert len(table) == len(frontier) > 3
    # the table takes its last levels bottom-up, the empty one past the
    # diameter included
    assert len(ups) == len(table) and 0 < sum(ups) < len(ups)
    assert ups[-1] and len(table[-1][0]) == 0
    # the level before the first scan is built top-down but not kept
    first = ups.index(True)
    assert not ups[first - 1] and first - 1 in unbuilt, (ups, unbuilt)
    assert all(ups[d + 1] for d in unbuilt)
    # both stores track the same levels: one probe, at the level where the
    # count finds the first cycle, with the same answer
    girth = girths[cayley._Table]
    assert girths[cayley._Levels] == girth
    assert probed[cayley._Table] == probed[cayley._Levels]
    assert probed[cayley._Table] == ([girth % 2 == 1] if want_girth else [])
    # the girth closes at level (girth - 1) // 2, the last one tracked
    last = (girth - 1) // 2 if want_girth else 0
    tracked = 0
    prev = np.array([modmat.encode(ModMatrix.identity(n, m))])
    # the d-th call of advance builds level d.  Frontier search keeps the
    # least code of each orbit of the generator-permuting automorphisms:
    # the table's level, each code replaced by its orbit's least, and the
    # element counts that both stores return agree
    orbits = cayley._Orbits(n, m, cayley._symmetries(gens))
    assert orbits.size == (4 if n == 2 else 2)
    for d, ((codes, size), (frontier_codes, frontier_size)) in enumerate(zip(table, frontier), 1):
        least = codes.copy()
        orbits.canon(least)
        assert np.array_equal(np.unique(least), frontier_codes)
        assert size == frontier_size == len(codes)
        assert (np.diff(codes) > 0).all()
        if d <= last:
            tracked += 1
            tgts = act(codes)
            in_prev = np.isin(tgts, prev)
            assert (in_prev.sum(axis=1) == 1).all()
        prev = codes
    assert (tracked > 0) == want_girth


def _apply_symmetry(M, sym):
    """A map of cayley._symmetries applied to one matrix: W times M entrywise,
    or with cof times M^(-T), the cofactor matrix of M of determinant 1."""
    W, cof = sym
    src = M.inverse().transpose() if cof else M
    return ModMatrix.from_rows(
        [[w * x for w, x in zip(wr, xr)] for wr, xr in zip(W, src.entries)], M.m
    )


@pytest.mark.parametrize(
    "spec,m,size",
    [
        ((2, 1, 2, 2), 35, 4),
        ((2, 1, 2, 2), 1009, 4),
        ((2, 1, 2, 3), 1009, 4),
        ((3, 4, 4, 2), 127, 2),
        ((3, 4, 2, 4), 7, 2),
    ],
)
def test_symmetries_of_the_paper_pairs(spec, m, size):
    # every sphere is a union of orbits of Sigma: for n = 2 tau, conjugation
    # by diag(1, -1), inverts X and Y, and sigma(M) = D M^(-T) D^(-1) sends
    # X to Y^(-1) and Y to X^(-1); for n = 3 only sigma.  Each kept map
    # permutes the symmetrized pair, also mod the composite 35, and the
    # kept maps with the identity are closed under composition
    X, Y = spec_generators(validate(*spec), m)
    gens = symmetrize([X, Y])
    maps = cayley._symmetries(gens)
    assert 1 + len(maps) == size
    entries = {g.entries for g in gens}
    images = [{g.entries: _apply_symmetry(g, sym).entries for g in gens} for sym in maps]
    assert all(set(image.values()) == entries for image in images)
    swaps = {X.entries: Y.inverse().entries, Y.entries: X.inverse().entries}
    assert any(all(image[g] == h for g, h in swaps.items()) for image in images)
    if size == 4:
        inverts = {X.entries: X.inverse().entries, Y.entries: Y.inverse().entries}
        assert any(all(image[g] == h for g, h in inverts.items()) for image in images)
        for one, two in itertools.combinations(images, 2):
            both = {g: two[one[g]] for g in one}
            assert both in images and both != one and both != two


def test_generic_generator_sets_have_no_symmetry():
    # a random pair of determinant 1 mod 11, and a set with a generator of
    # determinant 3, which leaves sigma out: Sigma is trivial and frontier
    # search keeps every code
    gens = symmetrize(_random_sl(2, 11, 2, np.random.default_rng(1)))
    assert cayley._symmetries(gens) == []
    det3 = [ModMatrix.from_rows([[1, 1], [1, 2]], 7), ModMatrix.from_rows([[3, 1], [0, 1]], 7)]
    assert [g.det() for g in det3] == [1, 3]
    assert cayley._symmetries(symmetrize(det3)) == []
    assert cayley._Levels(symmetrize(det3), collect=False).orbits.size == 1


@pytest.mark.parametrize(
    "spec,m", [((2, 1, 2, 2), 35), ((2, 1, 2, 3), 1009), ((3, 4, 4, 2), 127), ((3, 4, 2, 4), 7)]
)
def test_orbit_codes_are_the_least_images(spec, m, monkeypatch):
    # _Orbits runs each map through the kernel on codes, which forms the
    # image from the digits (for n = 3 from the 2 x 2 minors): on random
    # words and on stabilized elements (the identity, a diagonal matrix,
    # which tau fixes, and for n = 2 [[a, b], [c, a]], which the map with
    # W[1][0] = +-beta fixes when c = -W[1][0] b), canon writes the least
    # code of each orbit and returns the stabilized ones, and orbit_sizes
    # counts the distinct images
    gens = symmetrize(spec_generators(validate(*spec), m))
    n = gens[0].n
    maps = cayley._symmetries(gens)
    rng = np.random.default_rng(4)
    elems = [ModMatrix.identity(n, m), ModMatrix.from_rows(np.diag([2] * (n - 1) + [pow(2, 1 - n, m)]), m)]
    for _ in range(60):  # words of 30 random generators
        elems.append(elems[0])
        for j in rng.integers(0, len(gens), size=30):
            elems[-1] = elems[-1] @ gens[j]
    for W, cof in maps if n == 2 else ():
        if cof:  # [[a, b], [c, a]] with c = -W[1][0] b is fixed by this map
            a, b, c = next(
                (a, b, -W[1][0] * b % m)
                for b in range(1, m)
                for a in range(m)
                if (a * a + W[1][0] * b * b) % m == 1
            )
            elems.append(ModMatrix.from_rows([[a, b], [c, a]], m))
    codes = np.array([modmat.encode(M) for M in elems], dtype=np.int64)
    images = [{modmat.encode(M), *(modmat.encode(_apply_symmetry(M, sym)) for sym in maps)} for M in elems]
    fixed = {min(orbit) for orbit in images if len(orbit) < len(maps) + 1}
    assert len(fixed) >= (4 if n == 2 else 1)
    # at the default block sizes every call is one kernel block; with kernel
    # blocks of 7 codes and canon blocks of 16, each canon block spans three
    # kernel blocks, the last one ragged
    for act_block, orbit_block in ((cayley._ACT_BLOCK, cayley._ORBIT_BLOCK), (7, 16)):
        with monkeypatch.context() as mp:
            mp.setattr(cayley, "_ACT_BLOCK", act_block)
            mp.setattr(cayley, "_ORBIT_BLOCK", orbit_block)
            orbits = cayley._Orbits(n, m, maps)
            least = codes.copy()
            stabilized = orbits.canon(least)
            assert least.tolist() == [min(orbit) for orbit in images]
            sizes = orbits.orbit_sizes(codes)
            assert sizes.tolist() == [len(orbit) for orbit in images]
            assert set(np.concatenate(stabilized).tolist()) == fixed
            # a level of these orbits' codes holds the elements of every orbit
            level = np.unique(least)
            assert orbits.count(level, stabilized) == len(set().union(*images))


def _orbit_cases():
    primes = [p for p in range(3, 62) if modmat.is_prime(p)]
    cases = [((2, 1, 2, 2), p) for p in primes + [35]]
    cases += [((2, 1, 2, 3), p) for p in primes if 5 <= p <= 31]
    return cases + [((3, 4, 2, 4), 3), ((3, 4, 2, 4), 5)]


@pytest.mark.parametrize("spec,m", _orbit_cases())
def test_orbit_store_counts_what_every_code_counts(monkeypatch, spec, m):
    # frontier search with one code per orbit of Sigma, the same search with
    # an empty map list (every code kept) and, where the elements are
    # ranked, the table: full sweeps and girth-only searches give the same
    # order, girth, diameter, widest level and sphere sizes.  Small moduli
    # reach stabilized elements, which an orbit counted as |Sigma| would
    # miscount
    gens = symmetrize(spec_generators(validate(*spec), m))
    assert cayley._symmetries(gens)
    kw = dict(want_girth=True, collect=False, memory_budget=1 << 30)
    for girth_only in (False, True):
        runs = [_engine(gens, table=False, girth_only=girth_only, **kw)]
        with monkeypatch.context() as mp:
            mp.setattr(cayley, "_symmetries", lambda gens: [])
            runs.append(_engine(gens, table=False, girth_only=girth_only, **kw))
        if cayley._table_index(gens) is not None:
            runs.append(_engine(gens, table=True, girth_only=girth_only, **kw))
        got = {(r.order, r.girth, r.diameter, r.max_frontier, r.sphere_sizes) for r in runs}
        assert len(got) == 1, got


def _close_levels(prev, cur, targets, d):
    """_Levels.close on hand-built levels d - 1 and d and level d's targets,
    then _bfs's collision rule: level d + 1 and the girth that closes at d.

    The levels keep the invariant that the rule relies on while the girth is
    tracked: at d >= 1, exactly len(cur) targets lie in level d - 1, one
    parent per element of level d (a shared parent counts once per child).
    """
    if d:
        assert sum(t in prev for t in targets) == len(cur)
    store = cayley._Levels(s3_generators(), collect=True)
    store.prev = np.array(prev, dtype=np.int64)
    store.cur = np.array(cur, dtype=np.int64)
    store.levels = []
    # the targets joined into one array, as advance gathers them
    store.close(np.array(targets, dtype=np.int64))
    nxt = store.cur
    assert np.array_equal(store.prev, cur)
    assert store.levels == [nxt]
    # the rule as _bfs applies it, with the hand-built targets in place of
    # its k |L_d|; hits reads close's probe of level d
    if len(targets) - len(nxt) - (len(cur) if d else 0) > 0:
        return nxt.tolist(), 2 * d + 1 if store.hits() else 2 * d + 2
    return nxt.tolist(), None


def _close_reference(prev, cur, targets, d):
    """The same close on Python sets: level d + 1 and the girth candidates."""
    prev, cur = set(prev), set(cur)
    nxt = sorted(set(targets) - prev - cur)
    cands = set()
    if cur & set(targets):
        cands.add(2 * d + 1)
    repeated = {t for t in targets if targets.count(t) > 1}
    if repeated - prev:
        cands.add(2 * d + 2)
    return nxt, cands


def _shortest(reference):
    """A reference close's level d + 1 and its shortest candidate, the girth."""
    nxt, cands = reference
    return nxt, min(cands, default=None)


@pytest.mark.parametrize(
    "prev,cur,targets,d,want",
    [
        # a parent of level d - 1 shared by both elements of level d is a
        # repeat but closes no cycle
        ([2, 5], [7, 8], [5, 9, 5, 11], 1, ([9, 11], None)),
        # a new code reached twice: 2d + 2
        ([2], [7], [2, 9, 11, 9], 2, ([9, 11], 6)),
        # a target in level d: 2d + 1
        ([2], [7, 8], [2, 8, 11, 2], 1, ([11], 3)),
        # both, and a repeated code of level d: the shorter, 2d + 1
        ([2], [7, 8], [2, 8, 8, 11, 11, 2], 3, ([11], 7)),
        # targets below the first and above the last level code, and level
        # codes past the last target, which searchsorted places at the end
        ([50, 60], [70, 80], [65, 1, 50, 3, 60], 4, ([1, 3, 65], None)),
        ([1], [2], [20, 1, 10], 1, ([10, 20], None)),
        ([1], [2, 3], [3, 1, 20, 10, 3, 1], 1, ([10, 20], 3)),
        # depth 0: no level d - 1, and the root's targets
        ([], [0], [4, 3, 6, 5], 0, ([3, 4, 5, 6], None)),
        ([], [0], [4, 3, 3, 5], 0, ([3, 4, 5], 2)),
        ([], [0], [0, 3], 0, ([3], 1)),
    ],
)
def test_levels_close_finds_the_next_level_and_candidates(prev, cur, targets, d, want):
    got = _close_levels(prev, cur, targets, d)
    assert got == _shortest(_close_reference(prev, cur, targets, d))
    assert got == want


def test_levels_close_matches_a_set_reference_on_random_levels():
    rng = np.random.default_rng(7)
    for _ in range(300):
        # disjoint levels d - 1 and d, as the search keeps them, and level
        # d's targets, some repeated, drawn from a small code range: one
        # parent in level d - 1 per element of level d, the rest outside it
        codes = rng.permutation(40)
        d = int(rng.integers(0, 5))
        width = int(rng.integers(1, 8)) if d else 0
        prev = sorted(codes[:width].tolist())
        cur = sorted(codes[width : width + int(rng.integers(1, 8))].tolist())
        parents = rng.choice(prev, size=len(cur)).tolist() if d else []
        rest = codes[width:][rng.integers(0, 40 - width, size=int(rng.integers(1, 25)))]
        targets = rng.permutation(parents + rest.tolist()).tolist()
        got = _close_levels(prev, cur, targets, d)
        assert got == _shortest(_close_reference(prev, cur, targets, d))


def test_index_dtype_narrows_up_to_two_to_the_31():
    # every index lies below the index space, so 2^31 indices fit in int32
    assert cayley._index_dtype(2**31) == np.int32
    assert cayley._index_dtype(2**31 + 1) == np.int64


@pytest.mark.parametrize(
    "gen",
    [
        # SL_6(F_5): 5^36 codes do not fit in 63 bits
        ModMatrix.from_rows(
            [[1 if j in (i, i + 1) else 0 for j in range(6)] for i in range(6)], 5
        ),
        # the codes of 1 x 1 units mod 2^61 - 1 fit, their products do not
        ModMatrix.from_rows([[3]], 2**61 - 1),
    ],
)
def test_code_space_over_63_bits_raises_at_depth_zero(gen):
    with pytest.raises(BudgetExceededError, match="63 bits") as exc:
        cayley.bfs([gen])
    assert (exc.value.depth_reached, exc.value.order_so_far) == (0, 1)


def test_frontier_budget_is_charged_before_each_level(monkeypatch):
    # bfs() takes the rank table whenever the budget holds its 3 * 61^3
    # bytes, and frontier search peaks far above that, so no budget gives a
    # full frontier sweep of SL_2(F_61): the store is forced here, with an
    # empty map list, so that it keeps one code per element
    monkeypatch.setattr(cayley, "_symmetries", lambda gens: [])
    gens = symmetrize(spec_generators(SPEC2, 61))
    kw = dict(table=False, want_girth=True, girth_only=False, collect=False)
    budget = 1 << 30
    res = _engine(gens, memory_budget=budget, **kw)
    assert (res.order, res.girth, res.diameter) == (226_920, 16, 15)
    assert res.peak_bytes <= budget
    # before building level d + 1: codes of levels d - 1 and d, the k
    # gathered 8-byte targets per element of level d and their bytes of
    # close's mask, and the largest of act's scratch (the 4 digit arrays, a
    # quotient and two vectors of a block), a probe of level d - 1 or d and
    # level d + 1's copy out of the targets (8 k bytes per element of level
    # 0, 8 (k - 1) past it)
    k, sizes = res.degree, res.sphere_sizes
    charges = [
        8 * ((sizes[d - 1] if d else 0) + sizes[d])
        + 9 * k * sizes[d]
        + max(
            8 * 7 * min(sizes[d], cayley._ACT_BLOCK),
            17 * max(sizes[d - 1] if d else 0, sizes[d]),
            8 * (k - 1 if d else k) * sizes[d],
        )
        for d in range(len(sizes))
    ]
    assert res.peak_bytes == max(charges)
    with pytest.raises(BudgetExceededError) as exc:
        _engine(gens, memory_budget=res.peak_bytes - 1, **kw)
    d = charges.index(max(charges))
    # the level the budget cannot hold is never allocated
    assert (exc.value.depth_reached, exc.value.order_so_far) == (d, sum(sizes[: d + 1]))


def test_sphere_size_check_rejects_a_wrong_level():
    # girth 9 at degree 4: spheres 1..4 must hold 4, 12, 36, 108 elements
    cayley._check_sphere_sizes([1, 4, 12, 36, 108, 290], 4, 9)
    cayley._check_sphere_sizes([1, 4, 12], 4, 9)  # only computed levels count
    with pytest.raises(AssertionError, match="radius 3"):
        cayley._check_sphere_sizes([1, 4, 12, 35, 108], 4, 9)


def test_sphere_size_check_catches_a_level_with_a_stray_element(monkeypatch):
    # the collision rule fires only when a level has too few new elements:
    # a store that puts one stray element into level 2 passes it silently,
    # and the sphere sizes catch it.  With an empty map list frontier search
    # keeps every code, and diag(2, 505) is far from the identity mod 1,009,
    # so its ball stays apart and the search still closes at 22.  With the
    # four maps, a stray code stands for its orbit: the least code of
    # [[2, 7], [0, 505]] adds four elements, whose balls put an edge inside
    # level 10, so the rule reads 21 there
    p = 1009
    gens = symmetrize(spec_generators(SPEC2, p))
    real = cayley._Levels.close
    for rows, maps, want in (
        ([[2, 0], [0, 505]], [], "has 13 elements, but girth 22 at degree 4 requires 12"),
        ([[2, 7], [0, 505]], None, "has 16 elements, but girth 21 at degree 4 requires 12"),
    ):
        stray = np.array([modmat.encode(ModMatrix.from_rows(rows, p))])
        calls = []

        def close(self, joined, stray=stray, calls=calls):
            real(self, joined)
            calls.append(len(self.cur))
            if len(calls) == 2:  # level 2
                assert self.orbits.orbit_sizes(stray).tolist() == [self.orbits.size]
                self.orbits.canon(stray)
                self.cur = np.sort(np.append(self.cur, stray))

        with monkeypatch.context() as mp:
            mp.setattr(cayley._Levels, "close", close)
            if maps is not None:
                mp.setattr(cayley, "_symmetries", lambda gens, maps=maps: maps)
            with pytest.raises(AssertionError) as exc:
                cayley.bfs(gens, want_girth=True, girth_only=True)
        assert str(exc.value) == "sphere of radius 2 " + want


def _export_dot_reference(generators):
    # per-element decode / multiply / encode, as DOT export was first written
    res = cayley.bfs(generators, collect=True)
    n, m = generators[0].n, generators[0].m
    gens = [g for g in symmetrize(generators) if not g.is_identity()]
    edges = set()
    for code in [int(c) for c in res.codes]:
        M = modmat.decode(code, n, m)
        for g in gens:
            t = modmat.encode(M @ g)
            if t != code:
                edges.add((min(code, t), max(code, t)))
    lines = ["graph cayley {"]
    lines += [f'  v{int(c)} [label="{int(c)}"];' for c in res.codes]
    lines += [f"  v{u} -- v{v};" for u, v in sorted(edges)]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("p", [3, 5])
def test_export_dot_matches_per_element_reference(p):
    gens = list(spec_generators(SPEC2, p))
    assert export_dot(gens) == _export_dot_reference(gens)


def test_export_dot_keeps_an_identity_generator_out_of_the_edges():
    # the identity adds only loops, which the simple graph drops: a lone
    # identity gives one vertex and no edge, as does the BFS
    assert export_dot([ModMatrix.identity(2, 3)]) == 'graph cayley {\n  v28 [label="28"];\n}\n'
    gens = list(spec_generators(SPEC2, 3))
    assert export_dot(gens + [ModMatrix.identity(2, 3)]) == export_dot(gens)


def test_neighbour_map_positions_match_decode_product_encode():
    # row j holds the position of M g_j among the sorted codes, for every M
    gens = symmetrize(spec_generators(SPEC3, 3))
    res = cayley.bfs(gens, collect=True)
    nbr = cayley.neighbour_map(gens, res, memory_budget=1 << 30)
    codes = res.codes.tolist()
    assert nbr.shape == (len(gens), res.order) and nbr.flags.c_contiguous
    for i, code in enumerate(codes):
        M = modmat.decode(code, 3, 3)
        assert [codes[p] for p in nbr[:, i]] == [modmat.encode(M @ g) for g in gens]


def test_export_dot_of_the_mod_9973_cycle_fits_one_gib():
    # the shear [[1, 1], [0, 1]] generates a cycle of 9,973 elements mod
    # 9,973, under the DOT cap.  In a fresh interpreter whose address space
    # is capped at 1 GiB, its export needs no table over the 9,973^2 row
    # codes.  One BLAS thread keeps numpy's import small on any host
    import os
    import subprocess
    import sys

    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from girthlab import cayley\n"
        "from girthlab.modmat import ModMatrix\n"
        "dot = cayley.export_dot([ModMatrix.from_rows([[1, 1], [0, 1]], 9973)])\n"
        "lines = dot.splitlines()\n"
        "print(sum('label=' in l for l in lines), sum(' -- ' in l for l in lines))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cayley.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["9973", "9973"]


def test_dense_peak_bytes_counts_table_frontier_and_targets():
    # SL_2(F_7) is indexed by rank: the table holds 7^3 bytes, not 7^4, and
    # the rank action's two int64 tables 8 * 4 * 7^2 bytes each
    X, Y = spec_generators(SPEC2, 7)
    res = cayley.bfs([X, Y], want_girth=True)
    k = res.degree
    chunk = min(res.max_frontier, cayley._TARGET_BYTES // (8 * k))
    assert res.peak_bytes == 7**3 + 16 * k * 7**2 + 9 * res.max_frontier + 8 * k * chunk


def test_table_budget_is_charged_before_each_level():
    # a budget that holds 3 bytes per index (5^3 SL_2 ranks) and the rank
    # action's tables selects the table, whose own charge (table, rank
    # tables, 9 bytes per element of level d, one chunk's targets) can still
    # exceed it on a tiny group
    X, Y = spec_generators(SPEC2, 5)
    tables = 16 * 4 * 5**2
    budget = 3 * 5**3 + tables
    sizes = cayley.bfs([X, Y]).sphere_sizes
    chunk = cayley._TARGET_BYTES // (8 * 4)
    charges = [5**3 + tables + 9 * w + 8 * 4 * min(w, chunk) for w in sizes]
    d = next(i for i, c in enumerate(charges) if c > budget)
    with pytest.raises(BudgetExceededError) as exc:
        cayley.bfs([X, Y], memory_budget=budget)
    assert (exc.value.depth_reached, exc.value.order_so_far) == (d, sum(sizes[: d + 1]))


def test_more_than_255_generators_give_the_complete_graph():
    # the 256 nonzero shears of Z/257 generate it with every other element
    # as a neighbour: K_257.  The budget holds the 3 * 257^3 bytes of the
    # rank table but not the 16 * 256 * 257^2 bytes (270 MB) of the rank
    # action's tables, so frontier search runs
    gens = [ModMatrix.from_rows([[1, b], [0, 1]], 257) for b in range(1, 129)]
    assert len(symmetrize(gens)) == 256
    res = cayley.bfs(gens, want_girth=True, memory_budget=100 << 20)
    assert (res.order, res.girth, res.diameter, res.degree) == (257, 3, 1, 256)
    assert res.peak_bytes < 257**3


def test_shears_at_100_mib_stay_below_the_budget():
    # the same call in a fresh interpreter: its peak RSS, the import
    # included, stays below the 100 MiB budget.  The peak is VmHWM of the
    # child's own address space; ru_maxrss would carry over the peak of the
    # test process that spawned it
    import os
    import subprocess
    import sys

    code = (
        "from girthlab import cayley\n"
        "from girthlab.modmat import ModMatrix\n"
        "gens = [ModMatrix.from_rows([[1, b], [0, 1]], 257) for b in range(1, 129)]\n"
        "res = cayley.bfs(gens, want_girth=True, memory_budget=100 << 20)\n"
        "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "print(res.order, res.girth, hwm.split()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cayley.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    order, girth_found, rss_kib = map(int, out)
    assert (order, girth_found) == (257, 3)
    assert rss_kib * 1024 < 100 << 20


def test_table_closure_rss_stays_within_a_quarter_of_peak_bytes():
    # the SL_4(F_3) closure over its 3^15-byte rank table, in a fresh
    # interpreter: the growth of its peak RSS (VmHWM) over the BFS stays
    # within 1.25 times the charged peak_bytes: the table, the 3^12-byte
    # class table, the 8 * 4 * 3^7 bytes of the step table, 9 bytes for
    # each of the 4,316,098 elements of the widest level and one chunk's
    # 8 * 4 * 2^14 bytes of targets.  It stays below 0.92 times: the
    # widest level, which only scan follows, is never gathered, concatenated
    # or sorted (about 0.85 times on two CPUs and 0.79 on one; 0.99 and 0.94
    # when that level was built)
    import os
    import subprocess
    import sys

    code = (
        "from girthlab import cayley, words\n"
        "def hwm():\n"
        "    line = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "    return int(line.split()[1]) * 1024\n"
        "gens = [words._unit_band(4, 3, upper=u) for u in (True, False)]\n"
        "before = hwm()\n"
        "res = cayley.bfs(gens, memory_budget=1 << 30)\n"
        "print(res.order, res.peak_bytes, hwm() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cayley.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    order, peak, grown = map(int, out)
    assert (order, peak) == (group_order_sl(4, 3), 54_319_502)
    assert peak == 3**15 + 3**12 + 8 * 4 * 3**7 + 9 * 4_316_098 + 8 * 4 * 2**14
    assert grown <= 0.92 * peak, grown / peak


@pytest.mark.parametrize("m", [2, 3, 5, 7, 11])
def test_sl2_ranks_index_the_group_and_act_like_product_action(m):
    # every rank with a nonzero row 0 unranks to a distinct element of
    # SL_2(F_m), and acting on ranks then unranking equals the code kernel,
    # _product_action, which is checked against matrix products on its own
    rng = np.random.default_rng(m)
    gens = []
    while len(gens) < 3:
        g = ModMatrix.from_rows(rng.integers(0, m, size=(2, 2)).tolist(), m)
        if g.det() == 1:
            gens.append(g)
    assert cayley._table_index(gens) is not None
    act, unrank = cayley._sl2_ranks(m, gens)
    ranks = np.arange(m, m**3)  # r0 = 0 (ranks below m) is unused
    codes = unrank(ranks)
    assert len(np.unique(codes)) == len(codes) == group_order_sl(2, m)
    assert all(modmat.decode(c, 2, m).det() == 1 for c in codes.tolist())
    assert unrank(np.array([m])).tolist() == [modmat.encode(ModMatrix.identity(2, m))]
    tgts = act(ranks)
    assert tgts.shape == (len(ranks), 3)
    want = cayley._product_action(2, m, gens)(codes)
    assert np.array_equal(unrank(tgts.ravel()).reshape(tgts.shape), want)


def _dets(codes, n, m):
    """Determinants mod m of the elements of the codes, by Leibniz's sum."""
    digits = [codes // m**i % m for i in range(n * n)]
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for i in range(n):
            term = term * digits[n * i + perm[i]]
        total = total + term
    return total % m


@pytest.mark.parametrize("n,m", [(3, 3), (3, 5), (3, 7), (4, 3)])
def test_sln_ranks_index_the_group_and_act_like_product_action(n, m):
    # the used ranks, those whose top rows are independent, unrank to
    # distinct elements of SL_n(F_m), and the unused ones to singular
    # matrices; acting on used ranks then unranking equals the code kernel,
    # _product_action, on their codes.  Every rank for n = 3, a sample for
    # SL_4(F_3)
    rng = np.random.default_rng(100 * n + m)
    gens = []
    while len(gens) < 3:
        g = ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m)
        if g.det() == 1:
            gens.append(g)
    gens = symmetrize(gens)
    assert cayley._table_index(gens) is not None
    act, unrank = cayley._sln_ranks(n, m, gens, cayley._classes(n, m))
    space = m ** (n * n - 1)
    if n == 3:
        ranks = np.arange(space)
    else:
        ranks = np.unique(rng.integers(0, space, size=200_000))
    used, codes = [], []
    for at in range(0, len(ranks), 1 << 20):
        part = unrank(ranks[at : at + (1 << 20)])
        dets = _dets(part, n, m)
        assert ((dets == 0) | (dets == 1)).all()
        used.append(ranks[at : at + (1 << 20)][dets == 1])
        codes.append(part[dets == 1])
    used, codes = np.concatenate(used), np.concatenate(codes)
    assert (np.diff(np.sort(codes)) > 0).all()
    if n == 3:
        assert len(codes) == group_order_sl(n, m)
    else:
        # |SL_4(F_3)| / 3^15 = 0.845 of the ranks are used
        assert abs(len(codes) / len(ranks) - group_order_sl(n, m) / space) < 0.01
    root = cayley._Table(gens, cayley._table_index(gens)).cur
    assert unrank(root).tolist() == [modmat.encode(ModMatrix.identity(n, m))]
    sample = rng.choice(len(used), size=min(len(used), 20_000), replace=False)
    tgts = act(used[sample])
    assert tgts.shape == (len(sample), len(gens))
    want = cayley._product_action(n, m, gens)(codes[sample])
    assert np.array_equal(unrank(tgts.ravel()).reshape(tgts.shape), want)


@pytest.mark.parametrize("spec,m", [(SPEC3, 3), (SPEC3, 5), (validate(3, 4, 2, 4), 5)])
def test_sln_rank_table_matches_the_code_table(spec, m):
    # the same sweep over SL_3 ranks and over codes by frontier search: the
    # same spheres, girth, diameter and collected codes.  The rank table
    # charges m^8 bytes, the class and step tables, 9 bytes per element of
    # the widest level and one chunk's targets
    gens = symmetrize(spec_generators(spec, m))
    res = cayley.bfs(gens, want_girth=True, collect=True)
    kw = dict(want_girth=True, girth_only=False, collect=True, memory_budget=1 << 30)
    by_code = _engine(gens, table=False, **kw)
    assert (res.sphere_sizes, res.girth, res.diameter) == (
        by_code.sphere_sizes,
        by_code.girth,
        by_code.diameter,
    )
    assert res.order == group_order_sl(3, m)
    assert np.array_equal(res.codes, by_code.codes)
    space, tables = cayley._table_index(gens)
    assert (space, tables) == (m**8, cayley._class_dtype(3, m).itemsize * m**6 + 8 * 4 * m**5)
    chunk = min(res.max_frontier, cayley._TARGET_BYTES // (8 * 4))
    assert res.peak_bytes == m**8 + tables + 9 * res.max_frontier + 8 * 4 * chunk


def test_index_map_follows_the_generators():
    # ranks only for n >= 2, a prime modulus and determinant-1 generators:
    # the index space and the rank tables' bytes for SL_2 ranks, and for
    # SL_3 ranks with a one-byte class table over 3^6 tops, two bytes over
    # 7^6; None otherwise
    shear = [[1, 1], [0, 1]]
    one = [ModMatrix.from_rows(shear, 7)]
    assert cayley._table_index(symmetrize(one)) == (7**3, 16 * 2 * 7**2)
    assert cayley._table_index([ModMatrix.from_rows(shear, 9)]) is None  # composite
    assert (
        cayley._table_index(
            [ModMatrix.from_rows(shear, 7), ModMatrix.from_rows([[3, 0], [0, 1]], 7)]
        )
        is None
    )  # determinant 3
    shear3 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    for m, cls_bytes in ((3, 1), (7, 2)):
        gens = symmetrize([ModMatrix.from_rows(shear3, m)])
        assert cayley._table_index(gens) == (m**8, cls_bytes * m**6 + 8 * 2 * m**5)
    assert cayley._table_index([ModMatrix.from_rows(shear3, 9)]) is None  # composite
    assert (
        cayley._table_index(
            [
                ModMatrix.from_rows(shear3, 7),
                ModMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 7),
            ]
        )
        is None
    )  # determinant 2
    assert cayley._table_index([ModMatrix.from_rows([[3]], 7)]) is None  # n = 1


def test_unranked_full_sweeps_take_frontier_search(monkeypatch):
    # a composite modulus, a generator of determinant 3 and n = 1 leave the
    # elements unranked, so even a full sweep at the default budget takes
    # frontier search.  For (2, 1, 2, 2) mod 35 it keeps one code per orbit
    # of its four maps, and its peak is the largest over levels d, of P_d
    # codes of level d - 1 and C_d of level d, of
    # 8 (P_d + C_d) + 9 * 4 C_d + max(8 * 7 min(C_d, 2^15),
    # (8 * 10 + 2) min(4 C_d, 2^13), 17 max(P_d, C_d), 8 (4 - [P_d > 0]) C_d):
    # the codes, the targets and close's mask, and the largest of act's
    # scratch, canon's (the kernel's 7 vectors, 3 images and two masks per
    # target of a block), a probe of level d - 1 or d and level d + 1's
    # copy out of the targets
    shear = [[1, 1], [0, 1]]
    assert cayley._table_index(symmetrize([ModMatrix.from_rows(shear, 35)])) is None
    det3 = [ModMatrix.from_rows(shear, 7), ModMatrix.from_rows([[3, 0], [0, 1]], 7)]
    assert cayley._table_index(symmetrize(det3)) is None
    assert cayley._table_index(symmetrize([ModMatrix.from_rows([[3]], 7)])) is None
    widths = []  # (P_d, C_d) for each level d, as charge reads them
    charge = cayley._Levels.charge

    def spy(self, order):
        widths.append((len(self.prev), len(self.cur)))
        return charge(self, order)

    monkeypatch.setattr(cayley._Levels, "charge", spy)
    res = cayley.bfs(spec_generators(SPEC2, 35), want_girth=True)
    assert (res.order, res.girth, res.diameter, res.peak_bytes) == (40_320, 12, 13, 835_600)
    assert len(widths) == len(res.sphere_sizes)
    # a quarter of the elements, and a little more: the stabilized orbits
    assert 4 * sum(c for _, c in widths) - res.order in range(1, 200)
    assert res.peak_bytes == max(
        8 * (p + c)
        + 9 * 4 * c
        + max(
            8 * 7 * min(c, 2**15),
            (8 * 10 + 2) * min(4 * c, 2**13),
            17 * max(p, c),
            8 * (4 - (p > 0)) * c,
        )
        for p, c in widths
    )


def test_girth_only_search_never_takes_the_table(monkeypatch):
    # even a budget that holds the 3 * 307^3-byte rank table many times over
    # keeps a girth-only search on frontier search; the spies allocate
    # nothing, neither store nor level
    chosen = []

    def spy(store, k, **kw):
        chosen.append((store == "table", kw["girth_only"]))
        return cayley.BfsResult(1, None, None, k, 1, 0)

    monkeypatch.setattr(cayley, "_Table", lambda gens, index: "table")
    monkeypatch.setattr(cayley, "_Levels", lambda gens, collect: "levels")
    monkeypatch.setattr(cayley, "_bfs", spy)
    X, Y = spec_generators(SPEC2, 307)
    cayley.bfs([X, Y], want_girth=True, girth_only=True, memory_budget=1 << 45)
    need = 3 * 307**3 + 16 * 4 * 307**2  # the rank table and its action's tables
    cayley.bfs([X, Y], want_girth=True, memory_budget=need)
    cayley.bfs([X, Y], want_girth=True, memory_budget=need - 1)
    assert chosen == [(False, True), (True, False), (False, False)]


def test_girth_only_needs_want_girth():
    # without girth tracking nothing stops a girth-only search early: it would
    # sweep the whole group on frontier search and report no girth
    X, Y = spec_generators(SPEC2, 13)
    with pytest.raises(ParameterError, match="want_girth"):
        cayley.bfs([X, Y], girth_only=True)
    assert cayley.girth([X, Y]) == 10


def _conjugated(gens, m):
    # h^-1 g h for a fixed h of determinant 1
    h = ModMatrix.from_rows([[2, 1], [1, 1]], m)
    return [h.inverse() @ g @ h for g in gens]


@pytest.mark.parametrize("m", [5, 11, 23, 61])
def test_conjugate_generators_give_the_same_graph(m):
    # conjugation by h is an automorphism of SL_2(F_m), so it maps the
    # Cayley graph of the generators onto that of their conjugates: order,
    # girth, diameter and sphere sizes agree, although the generators differ
    gens = list(spec_generators(SPEC2, m))
    conj = _conjugated(gens, m)
    assert {g.entries for g in gens}.isdisjoint(g.entries for g in conj)
    res, res_conj = (cayley.bfs(g, want_girth=True) for g in (gens, conj))
    assert (res.order, res.girth, res.diameter, res.sphere_sizes) == (
        res_conj.order,
        res_conj.girth,
        res_conj.diameter,
        res_conj.sphere_sizes,
    )
    assert res.order == group_order_sl(2, m)
