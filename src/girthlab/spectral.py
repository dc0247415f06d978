"""Spectral machinery: Gram-matrix norms, the collision-number girth lower
bound, and an empirical second-eigenvalue estimator for expansion reports.

The girth bound rests on submultiplicativity: a product of c generator
matrices has operator norm at most gamma^c with gamma the largest generator
norm, so two distinct short products cannot collide mod p until gamma^c
reaches p/2.  Collisions at depth c force girth >= 2c - 1, giving
girth >= 2 log_gamma(p/2) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cayley
from .cayley import DegenerateSpecError
from .exactmat import ExactMatrix, ParameterError, ShapeError, magic_pair, power_closed_form
from .modmat import ModMatrix
from .params import GraphSpec

_MAX_DIM = 8


@dataclass(frozen=True)
class GirthBound:
    lambda_max: float
    beta_max: float
    gamma: float
    p: int
    bound_raw: float
    bound_reported: int

    def to_json(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "beta_max": self.beta_max,
            "gamma": self.gamma,
            "p": self.p,
            "bound_raw": self.bound_raw,
            "bound_reported": self.bound_reported,
        }


@dataclass(frozen=True)
class SpectralGapReport:
    order: int
    degree: int
    top_eigenvalue: float
    second_eigenvalue: float
    normalized_gap: float
    iterations: int
    residual: float
    seed: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "top_eigenvalue": self.top_eigenvalue,
            "second_eigenvalue": self.second_eigenvalue,
            "gap": self.normalized_gap,
            "iterations": self.iterations,
            "residual": self.residual,
            "seed": self.seed,
        }


def gram_lambda_max(M: ExactMatrix, *, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Top eigenvalue of M M^T by power iteration with a Rayleigh-quotient
    convergence test at relative tolerance tol."""
    if M.n > _MAX_DIM:
        raise ShapeError(f"gram computations support n <= {_MAX_DIM}, got {M.n}")
    n = M.n
    gram = (M @ M.transpose()).entries
    if any(abs(x) > 2.0**1020 for row in gram for x in row):
        raise ShapeError("entries overflow double precision; power is too large")
    G = np.array([[float(x) for x in row] for row in gram], dtype=float)
    # deterministic start with a slight tilt so no eigenvector is missed
    v = np.ones(n) + np.arange(n) / (10.0 * n)
    v /= np.linalg.norm(v)
    lam = float(v @ (G @ v))
    for _ in range(max_iter):
        w = G @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new = float(v @ (G @ v))
        if abs(new - lam) <= tol * abs(new):
            return new
        lam = new
    return lam


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
    A, B = magic_pair(spec.n, spec.a, spec.b, allow_small=True)
    lam = gram_lambda_max(power_closed_form(A, spec.l))
    beta = gram_lambda_max(power_closed_form(B, spec.l))
    gamma = max(math.sqrt(lam), math.sqrt(beta))
    raw = bound_formula(gamma, p)
    reported = max(3, math.ceil(raw))
    return GirthBound(lam, beta, gamma, p, raw, reported)


def second_eigenvalue(
    generators: Sequence[ModMatrix],
    *,
    order_limit: int = 2_000_000,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 500_000,
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET,
) -> SpectralGapReport:
    """Second-largest adjacency eigenvalue of the Cayley graph on the group
    the generators produce.

    Power iteration on A + degree*I with the constant vector deflated every
    step: the shift makes the spectrum nonnegative, so the iteration homes in
    on the second-largest signed eigenvalue instead of the largest modulus.
    Deterministic for a fixed seed.
    """
    gens = cayley.symmetrize(generators)
    for g in gens:
        if g.is_identity():
            raise DegenerateSpecError("identity generator; adjacency undefined")
    n, m = gens[0].n, gens[0].m
    res = cayley.bfs(gens, collect=True, memory_budget=memory_budget)
    if res.order > order_limit:
        raise ParameterError(
            f"group order {res.order} exceeds the order limit {order_limit}"
        )
    order = res.order
    k = len(gens)
    codes = np.asarray(res.codes, dtype=np.int64)
    tgts = cayley.row_action(n, m, gens)(codes)
    nbr = np.searchsorted(codes, tgts)
    if not bool((codes[nbr] == tgts).all()):
        raise AssertionError("neighbor landed outside the enumerated group")

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(order)
    v -= v.mean()
    v /= np.linalg.norm(v)
    shift = float(k)
    lam_shift = 0.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = v[nbr].sum(axis=1) + shift * v
        w -= w.mean()
        new = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            lam_shift = new
            residual = 0.0
            break
        v = w / norm
        residual = abs(new - lam_shift)
        lam_shift = new
        if residual <= tol:
            break
    second = lam_shift - shift
    return SpectralGapReport(
        order=order,
        degree=k,
        top_eigenvalue=float(k),
        second_eigenvalue=second,
        normalized_gap=(k - second) / k,
        iterations=iterations,
        residual=residual,
        seed=seed,
    )
