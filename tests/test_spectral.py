"""Spectral layer: Gram norms, characteristic polynomials, girth bounds,
second eigenvalues."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from girthlab import cayley, modmat, spectral
from girthlab.cayley import BudgetExceededError, spec_generators
from girthlab.exactmat import ExactMatrix, ParameterError, ShapeError, magic_pair, power_closed_form
from girthlab.modmat import ModMatrix
from girthlab.params import validate
from girthlab.spectral import (
    bound_formula,
    girth_lower_bound,
    gram_char_poly,
    gram_lambda_max,
    second_eigenvalue,
)

SPEC2 = validate(2, 1, 2, 2)
# a pair with a != b: (2, 1, 2, 2) is symmetric under the anti-diagonal swap
# J g J, which exchanges the upper and lower unitriangular groups
SPEC23 = validate(2, 1, 2, 3)


def magic_power(n, band, k, *, upper=True):
    A, B = magic_pair(n, band, band, allow_small=True)
    return power_closed_form(A if upper else B, k)


def test_gram_lambda_max_trivial_cases():
    assert gram_lambda_max(ExactMatrix.identity(3)) == pytest.approx(1.0)
    assert gram_lambda_max(ExactMatrix.from_rows([[2, 0], [0, 1]])) == pytest.approx(4.0)


def test_gram_lambda_max_printed_values():
    lam = gram_lambda_max(magic_power(3, 2, 4))
    beta = gram_lambda_max(magic_power(3, 4, 4, upper=False))
    assert lam == pytest.approx(704.54, abs=0.01)
    assert beta == pytest.approx(9728.31, abs=0.01)
    assert math.sqrt(lam) < 27
    assert math.sqrt(beta) < 99


def test_gram_lambda_max_against_eigvalsh():
    for M in [
        magic_power(3, 2, 4),
        magic_power(4, 4, 10),
        magic_power(4, 7, 10, upper=False),
        ExactMatrix.from_rows([[1, 5, 2], [0, 3, 1], [2, 0, 1]]),
    ]:
        G = np.array((M @ M.transpose()).entries, dtype=float)
        expect = float(np.linalg.eigvalsh(G).max())
        assert gram_lambda_max(M) == pytest.approx(expect, rel=1e-8)


def test_gram_char_poly_displayed_coefficients():
    assert gram_char_poly(magic_power(3, 2, 4)) == (-1, 707, -1731, 1)
    assert gram_char_poly(magic_power(3, 4, 4, upper=False)) == (-1, 9731, -26115, 1)
    assert gram_char_poly(magic_power(4, 4, 10)) == (
        1,
        -60024004,
        45502704006,
        -199800004,
        1,
    )
    assert gram_char_poly(magic_power(4, 7, 10, upper=False)) == (
        1,
        -1703884354,
        3949339922331,
        -5708752354,
        1,
    )


def test_gram_char_poly_parameter_substitution():
    assert gram_char_poly(magic_power(3, 1, 4)) == (-1, 71, -135, 1)


def test_gram_char_poly_rejects_large():
    with pytest.raises(ShapeError):
        gram_char_poly(ExactMatrix.identity(9))


def test_power_iteration_matches_char_poly_root():
    for M in [
        magic_power(3, 2, 4),
        magic_power(3, 4, 4, upper=False),
        magic_power(4, 4, 10),
        magic_power(4, 7, 10, upper=False),
    ]:
        roots = np.roots([float(c) for c in gram_char_poly(M)])
        root = roots[np.abs(roots.imag) < 1e-8 * (1 + np.abs(roots.real))].real.max()
        assert gram_lambda_max(M) == pytest.approx(root, rel=1e-6)


def test_gram_transpose_invariance():
    M = magic_power(4, 4, 10)
    assert gram_lambda_max(M) == pytest.approx(gram_lambda_max(M.transpose()), rel=1e-9)


def test_swapping_bands_swaps_roles_keeps_gamma():
    s1 = validate(3, 4, 2, 4)
    s2 = validate(3, 4, 4, 2)
    b1 = girth_lower_bound(s1, 101)
    b2 = girth_lower_bound(s2, 101)
    assert b1.lambda_max == pytest.approx(b2.beta_max, rel=1e-9)
    assert b1.beta_max == pytest.approx(b2.lambda_max, rel=1e-9)
    assert b1.gamma == pytest.approx(b2.gamma, rel=1e-9)


def test_girth_bound_norms_at_least_one():
    # determinant-1 matrices always have operator norm >= 1
    for spec in (SPEC2, validate(3, 4, 4, 2), validate(4, 10, 4, 7)):
        gb = girth_lower_bound(spec, 7)
        assert gb.lambda_max >= 1.0 and gb.beta_max >= 1.0
        assert gb.gamma**2 == pytest.approx(max(gb.lambda_max, gb.beta_max), rel=1e-12)


def test_bound_formula_exact_point():
    p = 2 * 99**3
    assert bound_formula(99.0, p) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ArithmeticError):
        bound_formula(1.0, 5)


def test_girth_lower_bound_values():
    gb = girth_lower_bound(validate(3, 4, 2, 4), 2 * 99**3)
    assert gb.gamma == pytest.approx(math.sqrt(9728.315568), rel=1e-6)
    assert gb.gamma < 99
    assert 5.0 < gb.bound_raw < 5.05
    gb_small = girth_lower_bound(validate(3, 4, 2, 4), 101)
    assert gb_small.bound_raw == pytest.approx(0.707, abs=0.01)
    assert gb_small.bound_reported == 3
    gb4 = girth_lower_bound(validate(4, 10, 4, 7), 1000003)
    assert gb4.gamma < 58376
    assert math.sqrt(gb4.lambda_max) < 10957
    with pytest.raises(ParameterError):
        girth_lower_bound(SPEC2, 2)


def test_second_eigenvalue_six_cycle():
    gens = [
        ModMatrix.from_rows([[1, 1], [0, 1]], 2),
        ModMatrix.from_rows([[1, 0], [1, 1]], 2),
    ]
    rep = second_eigenvalue(gens)
    assert rep.order == 6 and rep.degree == 2
    assert rep.second_eigenvalue == pytest.approx(1.0, abs=1e-6)


def test_second_eigenvalue_k4():
    gens = [ModMatrix.from_rows([[u, 0], [0, u]], 8) for u in (3, 5, 7)]
    rep = second_eigenvalue(gens)
    assert rep.order == 4 and rep.degree == 3
    assert rep.second_eigenvalue == pytest.approx(-1.0, abs=1e-6)


def test_second_eigenvalue_connected_strictly_below_degree():
    X, Y = spec_generators(SPEC2, 5)
    rep = second_eigenvalue([X, Y])
    assert rep.order == 120
    assert rep.second_eigenvalue < 4.0
    assert rep.gap > 0.0


def _adjacency_edges(p, spec=SPEC2):
    """(rows, cols) of the dim2 Cayley graph of spec at p, with neighbours
    found by decode, product and encode rather than by the row-table
    kernel."""
    X, Y = spec_generators(spec, p)
    codes = [int(c) for c in cayley.bfs([X, Y], collect=True).codes]
    idx = {c: i for i, c in enumerate(codes)}
    gens = cayley.symmetrize([X, Y])
    rows, cols = [], []
    for c in codes:
        M = modmat.decode(c, 2, p)
        for g in gens:
            rows.append(idx[c])
            cols.append(idx[modmat.encode(M @ g)])
    return len(codes), rows, cols


def _dense_spectrum(p, spec=SPEC2):
    order, rows, cols = _adjacency_edges(p, spec)
    A = np.zeros((order, order))
    A[rows, cols] = 1.0
    return np.sort(np.linalg.eigvalsh(A))


def test_second_eigenvalue_against_dense_spectrum():
    X, Y = spec_generators(SPEC2, 5)
    rep = second_eigenvalue([X, Y])
    # brute-force adjacency spectrum as the oracle
    spectrum = _dense_spectrum(5)
    assert spectrum[-1] == pytest.approx(4.0, abs=1e-9)
    assert rep.second_eigenvalue == pytest.approx(spectrum[-2], abs=1e-5)


@pytest.mark.parametrize("p", [5, 7])
def test_second_eigenvalue_residual_encloses_dense_eigenvalue(p):
    rep = second_eigenvalue(list(spec_generators(SPEC2, p)))
    lam2 = _dense_spectrum(p)[-2]
    # eigvalsh is exact only to about eps * ||A|| * order, so the interval is
    # widened by that much: these graphs reach an invariant subspace, and the
    # residual itself is rounding
    slack = 1e-12
    assert rep.residual <= 1e-8
    assert abs(rep.second_eigenvalue - lam2) <= rep.residual + slack


def test_second_eigenvalue_against_scipy_eigsh():
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    order, rows, cols = _adjacency_edges(13)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(order, order))
    top = linalg.eigsh(A, k=2, which="LA", tol=1e-12, return_eigenvectors=False)
    rep = second_eigenvalue(list(spec_generators(SPEC2, 13)))
    assert rep.second_eigenvalue == pytest.approx(min(top), abs=1e-10)
    # here pass 1 stops on Paige's estimate, not on an invariant subspace
    assert 1e-9 < rep.residual <= 1e-6
    assert abs(rep.second_eigenvalue - min(top)) <= rep.residual


def test_second_eigenvalue_deterministic():
    X, Y = spec_generators(SPEC2, 7)
    r1 = second_eigenvalue([X, Y], seed=42)
    r2 = second_eigenvalue([X, Y], seed=42)
    assert r1.second_eigenvalue == r2.second_eigenvalue
    assert r1.iterations == r2.iterations
    assert r1.residual == r2.residual


def test_second_eigenvalue_rejects_a_negative_seed_before_the_bfs(monkeypatch):
    def bfs(*args, **kwargs):
        raise AssertionError("the BFS ran")

    monkeypatch.setattr(cayley, "bfs", bfs)
    X, Y = spec_generators(SPEC2, 5)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        second_eigenvalue([X, Y], seed=-1)


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two CPUs"
)
def test_spectral_output_does_not_depend_on_the_cpu_count():
    # spectral at p = 53 in two fresh interpreters, one pinned to a single
    # CPU before numpy is imported, so that OpenBLAS starts one thread
    # there: the outputs are the same bytes.  No *_NUM_THREADS variable is
    # passed on, so the other child's BLAS threads follow its CPUs
    code = (
        "import os, sys\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from girthlab import cli\n"
        "spec = ['--n', '2', '--l', '1', '--a', '2', '--b', '2']\n"
        "sys.exit(cli.run(['spectral', *spec, '--p', '53', '--seed', '1']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cayley.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    one, all_cpus = (
        subprocess.run(
            [sys.executable, "-c", code, cpus], env=env, capture_output=True, check=True
        ).stdout
        for cpus in ("one", "all")
    )
    assert b'"second_eigenvalue"' in one
    assert one == all_cpus


def test_second_eigenvalue_budget_is_its_neighbour_map_charge():
    # mod the composite 9 the Cayley path runs: 8 N (k + max(n^2 + 4, k + 3))
    # bytes for the N = 648 elements at n = 2 and degree 4, above the BFS's
    # own peak: one byte less raises the partial result at the BFS's full
    # depth, and exactly the charge runs as the default does
    X, Y = spec_generators(SPEC2, 9)
    charge = 8 * 648 * (4 + max(2 * 2 + 4, 4 + 3))
    assert charge == 62_208
    full = cayley.bfs([X, Y], collect=True, memory_budget=charge)
    assert full.peak_bytes < charge
    with pytest.raises(BudgetExceededError) as exc:
        second_eigenvalue([X, Y], memory_budget=charge - 1)
    assert (exc.value.depth_reached, exc.value.order_so_far) == (full.diameter, 648)
    assert full.diameter == 8
    assert second_eigenvalue([X, Y], memory_budget=charge) == second_eigenvalue([X, Y])


def test_second_eigenvalue_budget_is_the_module_charge():
    # at p = 5 one module of V = 24 vertices is held at a time: its targets
    # and weights, 24 k bytes a vertex, and fourteen 8-byte vectors, 8 V
    # (3 k + 14) bytes.  One byte less raises at depth 0 before anything is
    # built, and exactly the charge runs as the default does
    X, Y = spec_generators(SPEC2, 5)
    charge = 8 * 24 * (3 * 4 + 14)
    with pytest.raises(BudgetExceededError, match="Gelfand-Graev modules") as exc:
        second_eigenvalue([X, Y], memory_budget=charge - 1)
    assert (exc.value.depth_reached, exc.value.order_so_far) == (0, 0)
    assert second_eigenvalue([X, Y], memory_budget=charge) == second_eigenvalue([X, Y])


def test_gram_lambda_max_is_at_least_the_exact_top_eigenvalue():
    # A = [[1, 2], [0, 1]] of (2, 1, 2, 2): A A^T = [[5, 2], [2, 1]] has the
    # top eigenvalue 3 + 2 sqrt 2, and x >= 3 + 2 sqrt 2 iff x >= 3 and
    # (x - 3)^2 >= 8, checked exactly
    A, B = magic_pair(2, 2, 2)
    bound = girth_lower_bound(SPEC2, 1009)
    for x in (gram_lambda_max(A), gram_lambda_max(B), bound.lambda_max, bound.beta_max):
        assert x >= 3 and (Fraction(x) - 3) ** 2 >= 8


@pytest.mark.parametrize(
    "M",
    [
        magic_power(2, 2, 1),
        magic_power(3, 2, 4),
        magic_power(3, 4, 4, upper=False),
        magic_power(4, 4, 10),
        magic_power(4, 7, 10, upper=False),
        ExactMatrix.from_rows([[1, 5, 2], [0, 3, 1], [2, 0, 1]]),
    ],
)
def test_gram_lambda_max_is_the_least_float_above_the_top_eigenvalue(M):
    # against the exact characteristic polynomial det(G - t I): past the top
    # eigenvalue it has the sign (-1)^n, and one float lower it is zero or
    # has the other sign (each top eigenvalue here is simple and far from
    # the next)
    coeffs = gram_char_poly(M)

    def charpoly(t):
        value = Fraction(0)
        for c in coeffs:
            value = value * Fraction(t) + c
        return value

    x = gram_lambda_max(M)
    sign = (-1) ** M.n
    assert charpoly(x) * sign > 0
    assert charpoly(math.nextafter(x, -math.inf)) * sign <= 0
    assert gram_lambda_max(M) == gram_lambda_max(M.transpose())


def test_neighbour_map_charge_holds_the_lanczos_vectors_at_n_1():
    # [[2]] generates the cycle of order 100 mod 101 (k = 2: 2 and 51).
    # Lanczos holds the two rows of positions and seven vectors of N
    # doubles, 8 N (2 + 7) bytes; the charge 8 N (k + max(n^2 + 4, k + 3))
    # of 5600 bytes fell below that, so a budget between the two ran
    g = ModMatrix.from_rows([[2]], 101)
    charge = 8 * 100 * (2 + 7)
    for budget in (6400, charge - 1):
        with pytest.raises(BudgetExceededError):
            second_eigenvalue([g], memory_budget=budget)
    report = second_eigenvalue([g], memory_budget=charge)
    assert report.order == 100
    assert report.second_eigenvalue == pytest.approx(2 * math.cos(2 * math.pi / 100), abs=1e-6)


def _distinct(values, tol=1e-9):
    """The sorted values with each run closer than tol kept once."""
    out = []
    for v in np.sort(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return np.array(out)


def _module_matrix(p, e, spec=SPEC2):
    """The dense matrix of the module psi_e of SL_2(F_p) under the dim2
    generators of spec; it must be Hermitian."""
    gens = cayley.symmetrize(spec_generators(spec, p))
    targets, weights = spectral._gelfand_graev(gens, p, e)
    V = p * p - 1
    A = np.zeros((V, V), dtype=complex)
    for row, weight in zip(targets, weights):
        np.add.at(A, (np.arange(V), row), weight)
    assert np.array_equal(A, A.conj().T)
    return A


def _modules_hold_the_spectrum(p, es, spec=SPEC2):
    """Whether the distinct eigenvalues of the modules psi_e, e in es, are
    those of the Cayley graph of spec without its trivial 4, to 1e-9."""
    cayley_values = _distinct(_dense_spectrum(p, spec))
    assert cayley_values[-1] == pytest.approx(4.0, abs=1e-9)
    modules = _distinct(
        np.concatenate([np.linalg.eigvalsh(_module_matrix(p, e, spec)) for e in es])
    )
    return len(modules) == len(cayley_values) - 1 and np.allclose(
        modules, cayley_values[:-1], rtol=0, atol=1e-9
    )


@pytest.mark.parametrize(
    "spec, p",
    [(SPEC2, 5), (SPEC2, 7), (SPEC2, 11), (SPEC2, 13), (SPEC23, 5), (SPEC23, 7), (SPEC23, 11)],
    ids=["5", "7", "11", "13", "2123-5", "2123-7", "2123-11"],
)
def test_gelfand_graev_modules_hold_the_cayley_spectrum(spec, p):
    assert _modules_hold_the_spectrum(p, (1, spectral._least_nonresidue(p)), spec)


def test_one_gelfand_graev_module_misses_lambda_2_at_5():
    # psi_1 alone tops out at 2.9032, below lambda_2 = 1 + sqrt 5
    assert spectral._least_nonresidue(5) == 2
    assert not _modules_hold_the_spectrum(5, (1,))
    assert np.linalg.eigvalsh(_module_matrix(5, 1))[-1] == pytest.approx(2.9032, abs=1e-4)
    assert np.linalg.eigvalsh(_module_matrix(5, 2))[-1] == pytest.approx(1 + math.sqrt(5))


def test_gelfand_graev_phase_is_the_unitriangular_factor():
    # each generator permutes the nonzero top rows, and sigma(r0) g =
    # [[1, 0], [s, 1]] sigma(r0 g) for every vertex r0 - 1 and generator,
    # with sigma(r0) the rank table's element of rank r0 p and s read back
    # from the weight of psi_1
    p = 7
    for spec in (SPEC2, SPEC23):
        gens = cayley.symmetrize(spec_generators(spec, p))
        targets, weights = spectral._gelfand_graev(gens, p, 1)
        _, unrank = cayley._sl2_ranks(p, gens)
        sigma = [modmat.decode(int(code), 2, p) for code in unrank(np.arange(1, p * p) * p)]
        assert [M[0, 0] + M[0, 1] * p for M in sigma] == list(range(1, p * p))

        for g, row, weight in zip(gens, targets, weights):
            assert sorted(row) == list(range(p * p - 1))
            for i in range(p * p - 1):
                s = round(np.angle(weight[i]) * p / (2 * math.pi)) % p
                assert weight[i] == pytest.approx(np.exp(2j * math.pi * s / p), abs=1e-12)
                u = ModMatrix.from_rows([[1, 0], [s, 1]], p)
                assert sigma[i] @ g == u @ sigma[int(row[i])], (spec, g, i)


# lambda_2 of the dim2 graph by scipy's eigsh on the whole Cayley graph,
# pinned as the benchmark's LAMBDA2 (perfbench/workloads.py)
_LAMBDA2_PINS = {13: 3.377088930783943, 53: 3.4934728930859484}


@pytest.mark.parametrize(
    "spec, p",
    [(SPEC2, 5), (SPEC2, 13), (SPEC2, 53), (SPEC23, 13), (SPEC23, 53)],
    ids=["5", "13", "53", "2123-13", "2123-53"],
)
def test_module_path_agrees_with_the_cayley_path(spec, p):
    gens = spec_generators(spec, p)
    rep = second_eigenvalue(list(gens), seed=0)
    assert (rep.order, rep.degree) == (p * (p * p - 1), 4)
    assert [(m.psi, m.vertices) for m in rep.modules] == [
        (1, p * p - 1),
        (spectral._least_nonresidue(p), p * p - 1),
    ]
    best = max(rep.modules, key=lambda m: m.top_eigenvalue)
    assert (rep.second_eigenvalue, rep.iterations, rep.residual) == (
        best.top_eigenvalue,
        best.iterations,
        best.residual,
    )
    whole = spectral._cayley_solve(cayley.symmetrize(gens), 0, cayley.DEFAULT_MEMORY_BUDGET)
    assert (whole.psi, whole.vertices) == (None, p * (p * p - 1))
    assert rep.second_eigenvalue == pytest.approx(whole.top_eigenvalue, abs=1e-9)
    if spec == SPEC2 and p in _LAMBDA2_PINS:
        assert rep.second_eigenvalue == pytest.approx(_LAMBDA2_PINS[p], abs=1e-9)


def test_module_path_runs_no_bfs(monkeypatch):
    def bfs(*args, **kwargs):
        raise AssertionError("the BFS ran")

    monkeypatch.setattr(cayley, "bfs", bfs)
    rep = second_eigenvalue(list(spec_generators(SPEC2, 13)))
    assert rep.order == 2184


@pytest.mark.parametrize(
    "gens",
    [
        [ModMatrix.from_rows([[1, 2], [0, 1]], 9), ModMatrix.from_rows([[1, 0], [2, 1]], 9)],
        [ModMatrix.from_rows([[1, 1], [0, 1]], 2), ModMatrix.from_rows([[1, 0], [1, 1]], 2)],
        [ModMatrix.from_rows([[1, 2], [0, 1]], 5), ModMatrix.from_rows([[2, 1], [1, 1]], 5)],
    ],
    ids=["composite", "p=2", "not unitriangular"],
)
def test_other_generator_sets_take_the_cayley_path(gens):
    rep = second_eigenvalue(gens)
    assert [(m.psi, m.vertices) for m in rep.modules] == [(None, rep.order)]
    assert rep.order == cayley.bfs(gens).order


@pytest.mark.parametrize("p", [5, 53])
def test_swapped_pair_takes_the_module_path(p, monkeypatch):
    # [[1, 0], [t, 1]] before [[1, s], [0, 1]] generates the same SL_2(F_p),
    # and the modules are built from the row action of any generators
    Y, X = ModMatrix.from_rows([[1, 0], [2, 1]], p), ModMatrix.from_rows([[1, 2], [0, 1]], p)
    whole = spectral._cayley_solve(cayley.symmetrize([Y, X]), 0, cayley.DEFAULT_MEMORY_BUDGET)
    assert whole.vertices == p * (p * p - 1)

    def bfs(*args, **kwargs):
        raise AssertionError("the BFS ran")

    monkeypatch.setattr(cayley, "bfs", bfs)
    rep = second_eigenvalue([Y, X])
    assert rep.order == p * (p * p - 1)
    assert [(m.psi, m.vertices) for m in rep.modules] == [
        (1, p * p - 1),
        (spectral._least_nonresidue(p), p * p - 1),
    ]
    assert rep.second_eigenvalue == pytest.approx(whole.top_eigenvalue, abs=1e-9)
    in_order = second_eigenvalue([X, Y])
    assert rep.second_eigenvalue == pytest.approx(in_order.second_eigenvalue, abs=1e-9)


def _tridiagonal(alphas, betas):
    """The dense j x j Lanczos tridiagonal, for the eigh oracle only."""
    return np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)


def _assert_top_ritz(alphas, betas, theta, s, *, ghost=False):
    """(theta, s) is T's top eigenpair: theta to 1e-13 relative, s unit and
    equal to eigh's vector up to sign, or, when the top two eigenvalues
    agree to rounding, an eigenvector to 1e-12."""
    T = _tridiagonal(alphas, betas)
    values, vectors = np.linalg.eigh(T)
    assert theta == pytest.approx(values[-1], rel=1e-13, abs=1e-13)
    s = np.array(s)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(T @ s - theta * s) <= 1e-12
    if not ghost:
        top = vectors[:, -1] * np.sign(vectors[:, -1] @ s)
        assert np.abs(s - top).max() <= 1e-12


def _random_tridiagonal(j, seed):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-1.0, 1.0, j)), list(rng.uniform(0.1, 1.5, j))


@pytest.mark.parametrize("j", [1, 2, 5, 50, 300])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_ritz_matches_eigh_on_random_tridiagonals(j, seed):
    # the top eigenvector of a random tridiagonal is localized: at j = 50
    # and 300 some of its ends are below 1e-20, so a recurrence from one end
    # alone would lose it.  Start from below the spectrum and from above it
    alphas, betas = _random_tridiagonal(j, seed)
    for x, step in ((-10.0, 1.0), (10.0, 1.0)):
        _assert_top_ritz(alphas, betas, *spectral._top_ritz(alphas, betas, x, step))


def test_top_ritz_far_above_many_eigenvalues(monkeypatch):
    # from far above the 2,000 eigenvalues of a random tridiagonal, a
    # Newton step is about the distance over j, and plain Newton took 870
    # to 2,880 LDL^T passes here; the midpoints bound that
    passes = []
    newton_step = spectral._newton_step

    def counted(alphas, betas, x):
        passes.append(x)
        return newton_step(alphas, betas, x)

    monkeypatch.setattr(spectral, "_newton_step", counted)
    alphas, betas = _random_tridiagonal(2000, 0)
    top = np.linalg.eigvalsh(_tridiagonal(alphas, betas))[-1]
    for x in (0.0, 10.0):
        passes.clear()
        theta, _ = spectral._top_ritz(alphas, betas, x, 1.0)
        assert theta == pytest.approx(top, rel=1e-13)
        assert len(passes) <= 200


def test_top_ritz_with_a_step_below_rounding():
    # a run that does not converge passes Paige estimates far below the
    # spacing of floats at theta: x + step would round back to x, and the
    # climb from below theta (here from the largest alpha) to a certified
    # point would stop with theta infinite
    alphas, betas = _random_tridiagonal(300, 0)
    for step in (1e-300, 0.0):
        _assert_top_ritz(alphas, betas, *spectral._top_ritz(alphas, betas, -10.0, step))


def test_top_ritz_across_a_tiny_beta():
    # beta = 1e-10 splits T into two nearly invariant blocks, and the top
    # eigenvector lies in one of them
    for seed in range(4):
        alphas, betas = _random_tridiagonal(40, seed)
        betas[19] = 1e-10
        _assert_top_ritz(alphas, betas, *spectral._top_ritz(alphas, betas, 0.0, 1.0))


def test_top_ritz_on_a_lanczos_ghost_pair():
    # Lanczos without reorthogonalization on diag(0, ..., 1, 2) copies the
    # converged top eigenvalue 2: T's top two eigenvalues agree to 1e-14,
    # and any unit vector of their plane is a top eigenvector to rounding
    d = np.concatenate([np.linspace(0.0, 1.0, 59), [2.0]])
    q, q_prev, beta = np.full(60, 60**-0.5), np.zeros(60), 0.0
    alphas, betas = [], []
    for _ in range(150):
        w = d * q
        alpha = float(q @ w)
        w -= alpha * q + beta * q_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        q_prev, q = q, w / beta
    values = np.linalg.eigvalsh(_tridiagonal(alphas, betas))
    assert values[-1] - values[-2] <= 1e-14
    _assert_top_ritz(alphas, betas, *spectral._top_ritz(alphas, betas, 4.0, 4.0), ghost=True)


def test_top_ritz_at_every_check_of_the_p53_modules():
    # the alphas and betas of both modules at p = 53 from the seed-0 start
    # vectors, chained as pass 1 chains them: each check starts from the
    # last theta and steps up by the last Paige estimate
    p = 53
    gens = cayley.symmetrize(spec_generators(SPEC2, p))
    for draw, e in enumerate((1, spectral._least_nonresidue(p)), start=1):
        targets, weights = spectral._gelfand_graev(gens, p, e)
        start = spectral._start_vector(0, draw, 2 * (p * p - 1)).view(np.complex128)
        start /= math.sqrt(spectral._dot(start, start))
        alphas, betas = [], []
        theta = estimate = 4.0
        for _, alpha, beta in spectral._lanczos(targets, weights, start, False):
            alphas.append(alpha)
            betas.append(beta)
            if len(alphas) % 5 == 0:
                theta, s = spectral._top_ritz(alphas, betas, theta, estimate)
                _assert_top_ritz(alphas, betas, theta, s)
                estimate = beta * abs(s[-1])
                if len(alphas) == 125:
                    break
        assert estimate <= spectral._TOL


def test_lanczos_holds_at_most_seven_module_vectors():
    # one run of two-pass Lanczos on psi_1 at p = 53 (2,808 vertices): its
    # tracemalloc peak on top of the module's targets, weights and start
    # vector is at most the seven complex vectors that _module_solves
    # charges.  No j x j matrix is built
    p = 53
    V = p * p - 1
    gens = cayley.symmetrize(spec_generators(SPEC2, p))
    targets, weights = spectral._gelfand_graev(gens, p, 1)
    start = np.random.default_rng(0).standard_normal(2 * V).view(np.complex128)
    start /= math.sqrt(spectral._dot(start, start))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        rho, steps, _ = spectral._top_pair(targets, weights, start, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == 120 and rho == pytest.approx(_LAMBDA2_PINS[53], abs=1e-9)
    assert peak - held <= 7 * 16 * V


def test_lanczos_runs_no_dense_eigensolver(monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigh)
    for gens in (list(spec_generators(SPEC2, 13)), list(spec_generators(SPEC2, 9))):
        assert second_eigenvalue(gens).residual <= 1e-6


def test_start_vector_is_a_pinned_splitmix64_stream():
    # the bytes of run 1 at seed 0 over 5,616 values, the same on every
    # platform and numpy version; each value is a multiple of 2^-52 in
    # [-1, 1).  A seed past 2^64 is folded, not reduced mod 2^64
    v = spectral._start_vector(0, 1, 5616)
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "1b723a3d01bf5cf9c0a403117519b6f93291b84d076406b01f60677a063cea52"
    )
    assert v.dtype == np.float64 and -1.0 <= v.min() and v.max() < 1.0
    assert np.all(np.ldexp(v + 1.0, 52) % 1.0 == 0.0)
    assert not np.array_equal(spectral._start_vector(1, 1, 64), spectral._start_vector(2**64 + 1, 1, 64))
    assert not np.array_equal(spectral._start_vector(1, 1, 64), spectral._start_vector(1, 2, 64))


def _splitmix64(z):
    """SplitMix64's finalizer on a Python int below 2^64, the reference for
    spectral._mix."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def test_start_vector_matches_a_python_int_reference():
    # the finalizer gives SplitMix64's published first outputs from the
    # state 1234567, and each stream is the loop of _start_vector's
    # docstring on Python ints, which do not wrap
    gamma = spectral._GAMMA
    assert [_splitmix64((1234567 + i * gamma) % 2**64) for i in (1, 2, 3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    for seed, draw in ((0, 1), (1, 2), (2**64 - 1, 1), (2**64 + 1, 1), (3**100, 2)):
        key, rest = 0, seed
        while True:
            key = _splitmix64(key ^ rest % 2**64)
            rest >>= 64
            if not rest:
                break
        key = _splitmix64((key + draw * gamma) % 2**64)
        want = [
            (_splitmix64((key + (i + 1) * gamma) % 2**64) >> 11) * 2.0**-52 - 1.0
            for i in range(100)
        ]
        assert spectral._start_vector(seed, draw, 100).tolist() == want, (seed, draw)


def test_pass_one_spaces_its_checks_past_step_1000(monkeypatch):
    # with _TOL 0 pass 1 never converges and runs to _MAX_ITER: a test every
    # 5 steps to step 1,000, then about 10% further each time, is 232
    # _top_ritz calls to step 20,000, where one every 5 steps would be 4,000
    p = 53
    gens = cayley.symmetrize(spec_generators(SPEC2, p))
    targets, weights = spectral._gelfand_graev(gens, p, 1)
    start = spectral._start_vector(0, 1, 2 * (p * p - 1)).view(np.complex128)
    start /= math.sqrt(spectral._dot(start, start))
    monkeypatch.setattr(spectral, "_TOL", 0.0)
    monkeypatch.setattr(spectral, "_MAX_ITER", 20_000)
    top_ritz, calls = spectral._top_ritz, []

    def counted(alphas, betas, x, step):
        calls.append(len(alphas))
        if len(calls) > 400:
            raise AssertionError(f"{len(calls)} checks by step {len(alphas)}")
        return top_ritz(alphas, betas, x, step)

    monkeypatch.setattr(spectral, "_top_ritz", counted)
    rho, steps, _ = spectral._top_pair(targets, weights, start, False)
    assert steps == 20_000 and calls[-1] == 20_000
    assert calls[:200] == list(range(5, 1_001, 5))
    assert len(calls) <= 250
    assert all(c % 5 == 0 for c in calls)
    assert rho == pytest.approx(_LAMBDA2_PINS[53], abs=1e-6)
