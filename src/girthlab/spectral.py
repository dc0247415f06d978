"""Spectral machinery: Gram-matrix norms, the collision-number girth lower
bound, and a second-eigenvalue solver for expansion reports.

The girth bound rests on submultiplicativity: a product of c generator
matrices has operator norm at most gamma^c with gamma the largest generator
norm, so two distinct short products cannot collide mod p until gamma^c
reaches p/2.  Collisions at depth c force girth >= 2c - 1, giving
girth >= 2 log_gamma(p/2) - 1.  The squared norms come from
gram_lambda_max, whose float is checked in exact arithmetic to lie above the
top eigenvalue of the Gram matrix: each is an upper bound, not an estimate
that may fall short of the true value.

The second adjacency eigenvalue lambda_2 comes from two-pass Lanczos on the
mean-free subspace, where it is the top eigenvalue.  The report's
`iterations` counts Lanczos steps, and its `residual` is the true residual
||Ay - rho y|| of the unit Ritz vector y with Rayleigh quotient rho, the
reported lambda_2, so [rho - residual, rho + residual] contains an
eigenvalue of A on the mean-free subspace.  Compare lambda_2 with the
Ramanujan bound 2 sqrt(k - 1) (Lubotzky-Phillips-Sarnak, 1988), 2 sqrt 3
for the 4-regular graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import cayley
from .cayley import DegenerateSpecError
from .exactmat import ExactMatrix, ParameterError, ShapeError, generator_pair
from .modmat import ModMatrix
from .params import GraphSpec

_MAX_DIM = 8
_CHECK_EVERY = 5  # Lanczos steps between convergence tests of pass 1
_TOL = 1e-6  # pass 1 stops once Paige's residual estimate is at most this
_MAX_ITER = 500_000  # Lanczos steps of pass 1 at most
_BREAKDOWN = 1e-12  # beta below this times the degree: an invariant subspace


@dataclass(frozen=True)
class GirthBound:
    lambda_max: float
    beta_max: float
    gamma: float
    p: int
    bound_raw: float
    bound_reported: int


@dataclass(frozen=True)
class SpectralGapReport:
    order: int
    degree: int
    top_eigenvalue: float
    second_eigenvalue: float
    gap: float  # (degree - second_eigenvalue) / degree
    iterations: int
    residual: float
    seed: int


def gram_lambda_max(M: ExactMatrix) -> float:
    """The least float above the top eigenvalue of M M^T: an upper bound of
    it, equal to it up to rounding.

    np.linalg.eigvalsh gives an estimate, which may fall on either side of
    the true value.  It moves one unit in the last place at a time to the
    least float x with x I - M M^T positive definite, checked exactly
    (_above_spectrum).
    """
    if M.n > _MAX_DIM:
        raise ShapeError(f"gram computations support n <= {_MAX_DIM}, got {M.n}")
    gram = (M @ M.transpose()).entries
    if any(abs(x) > 2.0**1020 for row in gram for x in row):
        raise ShapeError("entries overflow double precision; power is too large")
    x = float(np.linalg.eigvalsh(np.array(gram, dtype=float))[-1])
    while not _above_spectrum(x, gram):
        x = math.nextafter(x, math.inf)
    while _above_spectrum(below := math.nextafter(x, -math.inf), gram):
        x = below
    return x


def _above_spectrum(x: float, gram: Sequence[Sequence[int]]) -> bool:
    """Whether x I - G is positive definite for the symmetric integer G, that
    is, whether x exceeds every eigenvalue of G.

    Exact: x = num / den, and by Sylvester's criterion num I - den G is
    positive definite when all its leading principal minors are positive.
    """
    num, den = x.as_integer_ratio()
    S = [[num * (i == j) - den * g for j, g in enumerate(row)] for i, row in enumerate(gram)]
    return all(
        ExactMatrix.from_rows([row[:k] for row in S[:k]]).det() > 0 for k in range(1, len(S) + 1)
    )


def gram_char_poly(M: ExactMatrix) -> tuple:
    """Exact integer coefficients of det(M M^T - lambda I), degree high to low.

    Faddeev-LeVerrier on the exact Gram matrix; every division is exact over
    the integers, so the result is free of rounding.
    """
    if M.n > _MAX_DIM:
        raise ShapeError(f"gram computations support n <= {_MAX_DIM}, got {M.n}")
    n = M.n
    G = (M @ M.transpose()).entries
    # det(xI - G) = x^n + c1 x^(n-1) + ... + cn
    work = [[0] * n for _ in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        shifted = [
            [work[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        work = [
            [sum(G[i][r] * shifted[r][j] for r in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(work[i][i] for i in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)
    sign = (-1) ** n
    return tuple(sign * c for c in coeffs)


def largest_real_root(coeffs: Sequence[int]) -> float:
    """Largest real root of a polynomial given by high-to-low coefficients."""
    roots = np.roots([float(c) for c in coeffs])
    real = roots[np.abs(roots.imag) < 1e-8 * (1 + np.abs(roots.real))].real
    if len(real) == 0:
        raise ArithmeticError("polynomial has no real root")
    return float(real.max())


def bound_formula(gamma: float, p: int) -> float:
    """2 log_gamma(p/2) - 1, the collision-number girth lower bound."""
    if gamma <= 1.0:
        raise ArithmeticError(f"norm bound gamma must exceed 1, got {gamma}")
    return 2.0 * math.log(p / 2.0) / math.log(gamma) - 1.0


def girth_lower_bound(spec: GraphSpec, p: int) -> GirthBound:
    """Spectral girth lower bound for the generator pair of a spec at p.

    The reported integer bound is max(3, ceil(raw)): girth is an integer and
    a simple graph never has girth below 3, so both roundings are sound.
    """
    if p < 3:
        raise ParameterError(f"bound needs p >= 3, got {p}")
    X, Y = generator_pair(spec.n, spec.l, spec.a, spec.b, allow_small=True)
    lam, beta = gram_lambda_max(X), gram_lambda_max(Y)
    gamma = max(math.sqrt(lam), math.sqrt(beta))
    raw = bound_formula(gamma, p)
    reported = max(3, math.ceil(raw))
    return GirthBound(lam, beta, gamma, p, raw, reported)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v, summed by np.einsum, whose loop does not go through BLAS: the
    threaded sums of OpenBLAS round differently with the number of CPUs the
    process may run on."""
    return float(np.einsum("i,i", u, v))


def _lanczos(matvec, q: np.ndarray):
    """Lanczos steps from the unit mean-free vector q, without
    reorthogonalization: yields (q_j, alpha_j, beta_j) for j = 0, 1, ...

    Each new vector has its mean subtracted, so the recurrence stays on the
    mean-free subspace even as rounding leaks in the constant vector.  The
    steps are deterministic, so a second run from the same q yields the same
    vectors: the Ritz vector is rebuilt that way instead of storing them.
    Every dot product and norm is summed by _dot, so the steps do not depend
    on the CPU count either.
    """
    q_prev = np.zeros_like(q)
    beta = 0.0
    while True:
        w = matvec(q)
        w -= w.mean()
        alpha = _dot(q, w)
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(_dot(w, w))
        yield q, alpha, beta
        w /= beta
        q_prev, q = q, w


def _top_ritz(alphas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """Eigenvector of the largest eigenvalue of the Lanczos tridiagonal."""
    T = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    return np.linalg.eigh(T)[1][:, -1]


def second_eigenvalue(
    generators: Sequence[ModMatrix],
    *,
    seed: int = 0,
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET,
) -> SpectralGapReport:
    """Second-largest adjacency eigenvalue of the Cayley graph on the group
    the generators produce.

    Two-pass Lanczos on the mean-free subspace, where the top eigenvalue of
    the adjacency A is lambda_2.  Pass 1 keeps only the tridiagonal T and
    stops when Paige's estimate beta_j |s_j| of the top Ritz pair's residual
    is at most _TOL (checked every few steps), when beta_j <= _TOL, which
    bounds that estimate (beta_j ~ 0 means the Krylov space is invariant), or
    after _MAX_ITER steps.  Pass 2 repeats the steps from the same seeded
    start vector to build the Ritz vector y, made mean-free and unit.

    second_eigenvalue is the Rayleigh quotient rho = y.Ay, iterations the
    Lanczos steps of pass 1, and residual the true ||Ay - rho y||: the
    interval [rho - residual, rho + residual] contains an eigenvalue of A on
    the mean-free subspace (Parlett, The Symmetric Eigenvalue Problem,
    section 4.5).  Deterministic for a fixed seed, which must be >= 0, on
    any number of CPUs.

    Memory is charged to memory_budget by the BFS and by the neighbour map
    (cayley.neighbour_map), which raise BudgetExceededError when it does not
    fit.  Lanczos then holds the map and at most seven float64 vectors of the
    order, which the map's charge covers.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    gens = cayley.symmetrize(generators)
    for g in gens:
        if g.is_identity():
            raise DegenerateSpecError("identity generator; adjacency undefined")
    res = cayley.bfs(gens, collect=True, memory_budget=memory_budget)
    nbr = cayley.neighbour_map(gens, res, memory_budget=memory_budget)
    order, k = nbr.shape[1], len(gens)
    del res  # the codes are not needed past the map

    def matvec(v: np.ndarray) -> np.ndarray:
        w = v[nbr[0]]
        for row in nbr[1:]:
            w += v[row]
        return w

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(order)
    start -= start.mean()
    start /= math.sqrt(_dot(start, start))

    alphas: List[float] = []
    betas: List[float] = []
    for _, alpha, beta in _lanczos(matvec, start):
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        if beta <= max(_TOL, _BREAKDOWN * k) or steps >= _MAX_ITER:
            break
        if steps % _CHECK_EVERY == 0 and beta * abs(_top_ritz(alphas, betas)[-1]) <= _TOL:
            break
    s = _top_ritz(alphas, betas)

    y = np.zeros(order)
    for coeff, (q, _, _) in zip(s, _lanczos(matvec, start)):
        y += coeff * q
    y -= y.mean()
    y /= math.sqrt(_dot(y, y))
    ay = matvec(y)
    rho = _dot(y, ay)
    ay -= rho * y
    residual = math.sqrt(_dot(ay, ay))
    return SpectralGapReport(
        order=order,
        degree=k,
        top_eigenvalue=float(k),
        second_eigenvalue=rho,
        gap=(k - rho) / k,
        iterations=steps,
        residual=residual,
        seed=seed,
    )
