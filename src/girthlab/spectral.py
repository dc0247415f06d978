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

The second adjacency eigenvalue lambda_2 comes from two-pass Lanczos, whose
first pass finds the top pair of its tridiagonal in O(j) time and memory,
without a dense eigensolver (_top_ritz).  For the pair [[1, s], [0, 1]],
[[1, 0], [t, 1]] mod an odd prime p (s, t != 0), in either order, which
generates SL_2(F_p), it runs on the two Gelfand-Graev modules: the
functions f on the group with f(u g) = psi(u) f(g) for the characters
psi_e(u) = omega^(e u21), omega = exp(2 pi i / p), of the lower unitriangular
group U-, with e = 1 and e the least quadratic non-residue.  Each is a
Schreier graph with phases on the p^2 - 1 cosets of U-, the nonzero top
rows, which the generators move by the row action of the rank table
(cayley._sl2_rows).  Conjugation by w = [[0, 1], [-1, 0]] carries U- to the
upper unitriangular group U and psi_e to the character omega^(-e u12) of U,
whose module matrix on the cosets of U is the complex conjugate of that of
omega^(e u12), with the same spectrum.  The two modules of U together
contain every nontrivial irreducible representation of SL_2(F_p)
(Piatetski-Shapiro, Complex Representations of GL(2,K) for Finite Fields K,
1983), so the larger of the two top eigenvalues is lambda_2.  Any other
generator set runs on the whole Cayley graph's mean-free subspace, where
lambda_2 is the top eigenvalue.  The report's `modules` lists each Lanczos
run with its `iterations` (Lanczos steps) and its `residual`, the true
residual ||Ay - rho y|| of the unit Ritz vector y with Rayleigh quotient
rho; the top-level ones are those of the run that gives lambda_2, so
[rho - residual, rho + residual] contains an eigenvalue of A on that run's
space.  Compare lambda_2 with the Ramanujan bound 2 sqrt(k - 1)
(Lubotzky-Phillips-Sarnak, 1988), 2 sqrt 3 for the 4-regular graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cayley
from .cayley import BudgetExceededError, DegenerateSpecError
from .exactmat import ExactMatrix, ParameterError, ShapeError, generator_pair
from .modmat import ModMatrix, is_prime
from .params import GraphSpec

_MAX_DIM = 8
_CHECK_EVERY = 5  # Lanczos steps between convergence tests of pass 1
_TOL = 1e-6  # pass 1 stops once Paige's residual estimate is at most this
_MAX_ITER = 500_000  # Lanczos steps of pass 1 at most
_BREAKDOWN = 1e-12  # beta below this times the degree: an invariant subspace
_EPS = 2.0**-52  # the spacing of floats in [1, 2)


@dataclass(frozen=True)
class GirthBound:
    lambda_max: float
    beta_max: float
    gamma: float
    p: int
    bound_raw: float
    bound_reported: int


@dataclass(frozen=True)
class ModuleSolve:
    """One Lanczos run: on the module psi_e (psi = e) of p^2 - 1 vertices,
    or on the Cayley graph's mean-free subspace (psi None, vertices the
    order)."""

    psi: Optional[int]
    vertices: int
    top_eigenvalue: float
    iterations: int
    residual: float


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
    modules: Tuple[ModuleSolve, ...]


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
    """The real part of conj(u) . v, summed by np.einsum over the float64
    parts, whose loop does not go through BLAS: the threaded sums of
    OpenBLAS round differently with the number of CPUs the process may run
    on.  Lanczos takes only products that are real in exact arithmetic:
    norms, and q* A q for a Hermitian A."""
    return float(np.einsum("i,i", u.view(np.float64), v.view(np.float64)))


def _apply(targets: np.ndarray, weights: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """A v for the (k, V) map targets: (A v)_i is the sum over j of
    weights[j, i] v[targets[j, i]], or of v[targets[j, i]] when weights is
    None."""
    if weights is None:
        w = v[targets[0]]
        for row in targets[1:]:
            w += v[row]
        return w
    w = weights[0] * v[targets[0]]
    for weight, row in zip(weights[1:], targets[1:]):
        w += weight * v[row]
    return w


def _lanczos(targets: np.ndarray, weights: Optional[np.ndarray], q: np.ndarray, mean_free: bool):
    """Lanczos steps of the Hermitian A of _apply from the unit vector q,
    without reorthogonalization: yields (q_j, alpha_j, beta_j) for j = 0, 1,
    ...

    With mean_free, q is mean-free and each new vector has its mean
    subtracted, so the recurrence stays on the mean-free subspace even as
    rounding leaks in the constant vector.  The steps are deterministic, so a
    second run from the same q yields the same vectors: the Ritz vector is
    rebuilt that way instead of storing them.  Every dot product and norm is
    summed by _dot, so the steps do not depend on the CPU count either.
    """
    q_prev = np.zeros_like(q)
    beta = 0.0
    while True:
        w = _apply(targets, weights, q)
        if mean_free:
            w -= w.mean()
        alpha = _dot(q, w)
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(_dot(w, w))
        yield q, alpha, beta
        w /= beta
        q_prev, q = q, w


def _newton_step(alphas: Sequence[float], betas: Sequence[float], x: float) -> Optional[float]:
    """f(x) / f'(x) for f = det(x I - T), when x lies above the spectrum of
    the tridiagonal T with diagonal alphas and off-diagonal betas[:-1], else
    None.

    The LDL^T pivots of x I - T are d_1 = x - alpha_1 and d_i = x - alpha_i -
    beta_(i-1)^2 / d_(i-1).  They are all positive exactly when x I - T is
    positive definite (Sylvester's law of inertia), and a pivot d_i <= 0
    puts an eigenvalue of the leading i x i block, and so of T, at or above
    x.  f is their product, so f'/f is the sum of d_i'/d_i, with d_1' = 1
    and d_i' = 1 + beta_(i-1)^2 d_(i-1)' / d_(i-1)^2, all positive above the
    spectrum.
    """
    d, slope, coupling, total = 1.0, 0.0, 0.0, 0.0
    for alpha, beta in zip(alphas, betas):
        slope = 1.0 + coupling * slope / (d * d)
        d = x - alpha - coupling / d
        if d <= 0.0:
            return None
        total += slope / d
        coupling = beta * beta
    return 1.0 / total


def _top_ritz(
    alphas: Sequence[float], betas: Sequence[float], x: float, step: float
) -> Tuple[float, List[float]]:
    """(theta, s): the top eigenvalue of the Lanczos tridiagonal T of
    _newton_step and its unit eigenvector (_top_vector), in O(j) time and
    memory.

    From x, steps of step, 2 step, ... go up to the first point that the
    LDL^T pivots certify above the spectrum.  Newton on det(x I - T) then
    falls monotonically to theta.  Every iterate is certified above theta or
    known to lie at or below it.  From one that rounding puts below theta,
    steps of the rounding scale go up again.  The midpoint between the last
    certified point and the last point known below theta (at first the
    largest alpha, a Rayleigh quotient of T) replaces a Newton iterate at
    or below that point, and one whose step is over 3/4 of the last step:
    far above many eigenvalues, Newton creeps.  theta is the first
    certified point whose Newton step is within rounding of it (Parlett,
    The Symmetric Eigenvalue Problem, sections 7-8).  Every sum is a Python
    float sum, so the result does not depend on the CPU count.
    """
    lo, hi, last = max(alphas), math.inf, math.inf
    x = max(x, lo)
    while True:
        delta = _newton_step(alphas, betas, x)
        if delta is None:
            lo, x, step = x, min(x + step, 0.5 * (x + hi)), 2.0 * step
        else:
            hi, x, step = x, x - delta, _EPS * (abs(lo) + abs(x))
            if delta <= step:
                break
            if x <= lo or delta > 0.75 * last:
                x = 0.5 * (lo + hi)
            last = delta
        if not lo < x < hi:
            break
    return hi, _top_vector(alphas, betas, hi)


def _top_vector(alphas: Sequence[float], betas: Sequence[float], theta: float) -> List[float]:
    """The unit top eigenvector of T, for a theta that _newton_step
    certified above T's spectrum and within rounding of its top.

    The pivots of M = theta I - T from the top, d+_i, and from the bottom,
    d-_i, give for each row r the vector u with u_r = 1 and M u = gamma_r e_r,
    gamma_r = d+_r - beta_r^2 / d-_(r+1): upward u_i = beta_i u_(i+1) / d+_i,
    downward u_i = beta_(i-1) u_(i-1) / d-_i.  The row with the least
    |gamma_r| gives the smallest residual (a twisted factorization:
    Dhillon and Parlett, 2004).  M is positive definite, so every pivot and
    every component is positive, and nothing cancels.  A recurrence from one
    end alone loses the vector when its component at the other end is
    tiny.  The bottom pivots stop at the first that rounding makes <= 0:
    the rows above it carry no more than rounding of the vector.
    """
    j = len(alphas)
    top: List[float] = []
    d, coupling = 1.0, 0.0
    for alpha, beta in zip(alphas, betas):
        d = theta - alpha - coupling / d
        top.append(d)
        coupling = beta * beta
    bottom = [0.0] * j
    r, best = j - 1, abs(top[-1])
    d = theta - alphas[-1]
    for i in range(j - 2, -1, -1):
        if d <= 0.0:
            break
        bottom[i + 1] = d
        coupling = betas[i] * betas[i] / d
        if abs(top[i] - coupling) < best:
            r, best = i, abs(top[i] - coupling)
        d = theta - alphas[i] - coupling
    u = [1.0] * j
    for i in range(r - 1, -1, -1):
        u[i] = betas[i] * u[i + 1] / top[i]
    for i in range(r + 1, j):
        u[i] = betas[i - 1] * u[i - 1] / bottom[i]
    norm = math.hypot(*u)
    return [c / norm for c in u]


def _top_pair(
    targets: np.ndarray, weights: Optional[np.ndarray], start: np.ndarray, mean_free: bool
) -> Tuple[float, int, float]:
    """(rho, steps, residual) of two-pass Lanczos from the unit vector start:
    the Rayleigh quotient of the top Ritz vector y, the steps of pass 1, and
    the true ||Ay - rho y||.

    Each test of pass 1 starts _top_ritz from the last test's theta, below
    the new one by interlacing, and steps up by the last Paige estimate; the
    first starts from the degree k, which bounds ||A||."""
    alphas: List[float] = []
    betas: List[float] = []
    theta = estimate = float(len(targets))
    for _, alpha, beta in _lanczos(targets, weights, start, mean_free):
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        stop = beta <= max(_TOL, _BREAKDOWN * len(targets)) or steps >= _MAX_ITER
        if stop or steps % _CHECK_EVERY == 0:
            theta, s = _top_ritz(alphas, betas, theta, estimate)
            estimate = beta * abs(s[-1])
            if stop or estimate <= _TOL:
                break

    y = np.zeros_like(start)
    for coeff, (q, _, _) in zip(s, _lanczos(targets, weights, start, mean_free)):
        y += coeff * q
    if mean_free:
        y -= y.mean()
    y /= math.sqrt(_dot(y, y))
    ay = _apply(targets, weights, y)
    rho = _dot(y, ay)
    ay -= rho * y
    return rho, steps, math.sqrt(_dot(ay, ay))


def _unitriangular_prime(generators: Sequence[ModMatrix]) -> Optional[int]:
    """p when the generators are X = [[1, s], [0, 1]] and Y = [[1, 0], [t, 1]],
    in either order, mod an odd prime p with s, t != 0, else None.

    Then X^(1/s) = E12(1) and Y^(1/t) = E21(1), which generate SL_2(F_p):
    the group is certified without a BFS, and the Gelfand-Graev modules hold
    the whole spectrum of its Cayley graph but the trivial eigenvalue.  Only
    this certificate reads the shape of the pair: the modules are built from
    the row action of any generators (_gelfand_graev).
    """
    if len(generators) != 2:
        return None
    X, Y = generators
    p = X.m
    if X.n != 2 or Y.n != 2 or Y.m != p or p == 2 or not is_prime(p):
        return None
    if X.entries[1][0]:
        X, Y = Y, X
    (x11, s), (x21, x22) = X.entries
    (y11, y12), (t, y22) = Y.entries
    if (x11, x21, x22, y11, y12, y22) != (1, 0, 1, 1, 0, 1) or s == 0 or t == 0:
        return None
    return p


def _least_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p (Euler's
    criterion)."""
    return next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)


def _gelfand_graev(gens: Sequence[ModMatrix], p: int, e: int) -> Tuple[np.ndarray, np.ndarray]:
    """(targets, weights), both (k, p^2 - 1), of the module psi_e of
    SL_2(F_p) under the k symmetrized generators gens.

    Every element is [[1, 0], [t, 1]] sigma(r0) for its top row r0, and
    sigma(r0) g = [[1, 0], [s, 1]] sigma(r0 g) with the row table and the
    shift s of cayley._sl2_rows, which also builds the rank table's action
    (cayley._sl2_ranks).  So vertex r0 - 1 is the coset U- sigma(r0) of the
    nonzero top row r0, its target under g is the row r0 g, and its weight
    is psi_e([[1, 0], [s, 1]]) = omega^(e s).  The table of roots has
    omega^(p - x) = conj(omega^x) exactly, so the weighted matrix is exactly
    Hermitian.
    """
    _, _, targets, shift = cayley._sl2_rows(p, gens)
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    roots[(p + 1) // 2 :] = roots[(p - 1) // 2 : 0 : -1].conj()
    targets = targets[:, 1:]  # the top row r0 = 0 is no row of the group
    targets -= 1
    shift = shift[:, 1:]
    shift *= e
    shift %= p
    return targets, roots[shift]


def _module_solve(gens: Sequence[ModMatrix], p: int, e: int, rng) -> ModuleSolve:
    """Lanczos on the module psi_e, from a complex start vector of rng.
    Neither module holds the trivial representation, so no mean is
    subtracted."""
    targets, weights = _gelfand_graev(gens, p, e)
    start = rng.standard_normal(2 * (p * p - 1)).view(np.complex128)
    start /= math.sqrt(_dot(start, start))
    return ModuleSolve(e, p * p - 1, *_top_pair(targets, weights, start, False))


def _module_solves(
    gens: Sequence[ModMatrix], p: int, rng, memory_budget: int
) -> List[ModuleSolve]:
    """Lanczos on psi_1, then on psi_eps for the least non-residue eps.

    One module is held at a time: its targets and weights, 24 k bytes a
    vertex, and at most seven complex128 Lanczos vectors.  That is charged
    first, with fourteen 8-byte vectors that also cover the build's scratch
    (cayley._sl2_rows's shift table and its temporaries);
    over memory_budget it raises BudgetExceededError at depth 0.
    """
    V = p * p - 1
    charge = 8 * V * (3 * len(gens) + 14)
    if charge > memory_budget:
        raise BudgetExceededError(
            0, 0, f"the two Gelfand-Graev modules of {V} vertices need {charge} bytes"
        )
    return [_module_solve(gens, p, e, rng) for e in (1, _least_nonresidue(p))]


def _cayley_solve(gens: Sequence[ModMatrix], rng, memory_budget: int) -> ModuleSolve:
    """Lanczos on the mean-free subspace of the Cayley graph, from a
    mean-free start vector of rng.

    Memory is charged to memory_budget by the BFS and by the neighbour map
    (cayley.neighbour_map), which raise BudgetExceededError when it does not
    fit.  Lanczos then holds the map and at most seven float64 vectors of the
    order, which the map's charge covers.
    """
    res = cayley.bfs(gens, collect=True, memory_budget=memory_budget)
    nbr = cayley.neighbour_map(gens, res, memory_budget=memory_budget)
    order = nbr.shape[1]
    del res  # the codes are not needed past the map
    start = rng.standard_normal(order)
    start -= start.mean()
    start /= math.sqrt(_dot(start, start))
    return ModuleSolve(None, order, *_top_pair(nbr, None, start, True))


def second_eigenvalue(
    generators: Sequence[ModMatrix],
    *,
    seed: int = 0,
    memory_budget: int = cayley.DEFAULT_MEMORY_BUDGET,
) -> SpectralGapReport:
    """Second-largest adjacency eigenvalue of the Cayley graph on the group
    the generators produce.

    For X = [[1, s], [0, 1]], Y = [[1, 0], [t, 1]] mod an odd prime p with
    s, t != 0, in either order (the dim2 pair at every p not dividing
    l a b), the group is SL_2(F_p), of order p (p^2 - 1), and Lanczos runs
    on its two Gelfand-Graev modules of p^2 - 1 vertices each
    (_gelfand_graev): no BFS, no neighbour map.  lambda_2 is the larger top eigenvalue of the
    two.  Any other generator set runs one BFS and Lanczos on the mean-free
    subspace of the whole Cayley graph.

    Each run is two-pass Lanczos.  Pass 1 keeps only the diagonal and the
    off-diagonal of the tridiagonal T.  Every few steps it finds T's top
    eigenvalue theta and unit eigenvector s in O(j) time and memory, by
    Newton on det(x I - T) certified by its LDL^T pivots and a three-term
    recurrence (_top_ritz), and it stops when Paige's estimate beta_j |s_j|
    of the top Ritz pair's residual is at most _TOL, when beta_j <= _TOL,
    which bounds that estimate (beta_j ~ 0 means the Krylov space is
    invariant), or after _MAX_ITER steps.  Pass 2 repeats the steps from the
    same start vector to build the Ritz vector y with the coefficients s,
    made unit (and mean-free on the Cayley graph).  Its top eigenvalue is
    the Rayleigh quotient rho = y* A y, its iterations the Lanczos steps of
    pass 1, and its residual the true ||Ay - rho y||: [rho - residual,
    rho + residual] contains an eigenvalue of A on that module (Parlett, The
    Symmetric Eigenvalue Problem, section 4.5).  The report's modules lists
    the runs; its second_eigenvalue, iterations and residual are those of
    the run with the largest rho.  The start vectors are drawn in turn from
    one generator seeded with seed, which must be >= 0; the result is
    deterministic on any number of CPUs.

    The memory of either path is charged to memory_budget before it is
    allocated (_module_solves, _cayley_solve); BudgetExceededError carries
    the partial result when it does not fit.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    gens = cayley.symmetrize(generators)
    for g in gens:
        if g.is_identity():
            raise DegenerateSpecError("identity generator; adjacency undefined")
    rng = np.random.default_rng(seed)
    p = _unitriangular_prime(generators)
    if p is None:
        solves = [_cayley_solve(gens, rng, memory_budget)]
        order = solves[0].vertices
    else:
        solves = _module_solves(gens, p, rng, memory_budget)
        order = p * (p * p - 1)
    best = max(solves, key=lambda solve: solve.top_eigenvalue)
    k, rho = len(gens), best.top_eigenvalue
    return SpectralGapReport(
        order=order,
        degree=k,
        top_eigenvalue=float(k),
        second_eigenvalue=rho,
        gap=(k - rho) / k,
        iterations=best.iterations,
        residual=best.residual,
        seed=seed,
        modules=tuple(solves),
    )
