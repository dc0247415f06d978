"""Cayley graph BFS: closure, girth, diameter, tables, export."""

import math

import numpy as np
import pytest

from girthlab import cayley, modmat
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
    stats_csv,
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


def test_dense_and_sparse_paths_agree():
    X, Y = spec_generators(SPEC2, 7)
    dense = cayley.bfs([X, Y], want_girth=True)
    # starving the dense path of memory forces the dictionary path
    sparse = cayley.bfs([X, Y], want_girth=True, memory_budget=1 << 20)
    assert (dense.order, dense.girth, dense.diameter) == (
        sparse.order,
        sparse.girth,
        sparse.diameter,
    )


def test_budget_exceeded_carries_partial_info():
    X, Y = spec_generators(SPEC2, 61)
    with pytest.raises(BudgetExceededError) as exc:
        cayley.bfs([X, Y], memory_budget=200_000)
    assert exc.value.depth_reached >= 1
    assert exc.value.order_so_far > 0


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


def test_stats_csv_format():
    rows = dg_table(SPEC2, [3, 5])
    text = stats_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "p,order,full,girth,diameter,ratio,seconds,peak_bytes"
    assert lines[1].startswith("3,24,true,3,")
    assert ",0.000," in lines[1]  # timings zeroed by default


def test_girth_of_inverse_pair_cycle():
    # X = Y^-1 degenerates to a single cyclic generator: the graph is a cycle
    X = ModMatrix.from_rows([[1, 1], [0, 1]], 5)
    Y = modmat.inverse(X)
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
    # independent oracle on random generator sets over small moduli
    import random

    import networkx as nx

    rng = random.Random(314)
    cases = 0
    while cases < 25:
        m = rng.choice([3, 4, 5])
        rows = [[rng.randrange(m) for _ in range(2)] for _ in range(2)]
        try:
            g1 = ModMatrix.from_rows(rows, m)
            modmat.inverse(g1)
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
        got = math.inf if res.girth is None else res.girth
        assert got == expect_girth, (rows, m, got, expect_girth)
        assert res.diameter == nx.diameter(G)
        assert res.order == G.number_of_nodes()
        cases += 1


def test_composite_modulus_closure():
    spec = validate(2, 1, 2, 2)
    X, Y = spec_generators(spec, 9)
    row = cayley_stats(spec, 9)
    assert row.generated_full is None  # no closed-form target mod 9
    assert row.order == closure([X, Y])
    assert row.girth is not None


@pytest.mark.parametrize("n,m", [(2, 6), (3, 4), (4, 3), (5, 2), (2, 101)])
def test_row_action_matches_matrix_product(n, m):
    rng = np.random.default_rng(1000 * n + m)
    gens = [
        ModMatrix.from_rows(rng.integers(0, m, size=(n, n)).tolist(), m) for _ in range(3)
    ]
    codes = rng.integers(0, m ** (n * n), size=300)
    tgts = cayley.row_action(n, m, gens)(codes)
    assert tgts.shape == (300, 3)
    for j, g in enumerate(gens):
        want = [modmat.encode(modmat.decode(c, n, m) @ g) for c in codes.tolist()]
        assert tgts[:, j].tolist() == want


@pytest.mark.parametrize("spec,m", [(SPEC3, 3), (SPEC2, 9), (SPEC2, 10), (SPEC2, 11)])
def test_dense_and_sparse_engines_agree_past_depth_three(spec, m):
    # the dense table stores depth mod 3, so diameters above 3 wrap it; at
    # p = 11 the first cycle (girth 9) closes at depth 4, past the wrap
    gens = symmetrize(spec_generators(spec, m))
    kw = dict(want_girth=True, girth_only=False, collect=True)
    dense = cayley._bfs_dense(gens, **kw)
    sparse = cayley._bfs_sparse(gens, memory_budget=1 << 30, **kw)
    assert dense.diameter > 3
    assert (dense.order, dense.girth, dense.diameter, dense.max_frontier) == (
        sparse.order,
        sparse.girth,
        sparse.diameter,
        sparse.max_frontier,
    )
    assert dense.codes.tolist() == sparse.codes


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


def test_dense_peak_bytes_counts_table_frontier_and_targets():
    X, Y = spec_generators(SPEC2, 7)
    res = cayley.bfs([X, Y], want_girth=True)
    chunk = min(res.max_frontier, cayley._CHUNK)
    assert res.peak_bytes == 7**4 + 9 * res.max_frontier + 8 * res.degree * chunk
