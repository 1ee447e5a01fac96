"""Localized least-squares machinery: regression models, exact and
l1-constrained empirical risk minimizers with optimality certificates,
localized Gaussian complexity, the critical radius, the bad-event
probability, and rate sweeps for the linear and l1 classes.

The linear sweep writes the exact critical radius 2 sigma E chi_r / sqrt(n)
of a rank-r design (Wainwright, High-Dimensional Statistics, 2019, ch. 13);
``critical_radius`` bisects a noise panel for either class.

Conventions.  Designs are n x d arrays; the empirical norm of a value vector
is its root mean square.  The shifted-class coefficient for the l1 class is
constrained to the R-ball directly; experiments keep the truth in the ball's
interior so the shifted class is star-shaped.

Function classes.  ``LinearClass`` and ``L1BallClass`` hold all that differs
between the two classes, so no experiment branches on the class:
``inner_sups(X, w, delta, pmap)`` is the supremum of w' X theta / n over the
class within the empirical delta-ball for each noise row of w (to relative
accuracy ``REL_TOL`` where it is iterative), with pmap a map such as the
builtin ``map``, and ``reach(X)`` the largest empirical norm the class
attains.  The class constant ``kind`` labels the class in derived random
streams.

Radius suprema on workers.  ``critical_radius``, ``localized_complexity_mc``
and ``estimate_bad_event_probability`` each open one ``workers.forked_pool``
and pass its map to ``inner_sups``.  The l1 class maps ``l1_localized_sup``
over the noise rows, so the rows of one supremum run on forked workers, and
one pool serves a whole critical-radius call: its 8 grid radii and every
bisection step, about 21 maps, fork once.  The bits cannot move: each row
is solved by the same function on the same row wherever it runs, and the
map returns the results in row order, so the mean, the estimates and every
report are those of the serial loop.  The linear class's closed form is one
batched product and ignores the map, so it never forks.  A tracer's spans
inside the workers are not seen: a traced l1-radius run reads
``regression.l1_localized_sup.calls`` and ``critical_radius.g_evals`` as 0,
as the l1 sweep's solves have read since they moved to workers.

Lockstep l1 solves.  ``solve_ls_l1_batch`` runs the Frank-Wolfe loop over a
stack of problems of one shape, and ``solve_ls_l1`` is a stack of one.  Each
row does exactly the floating-point operations of a loop over its problem
alone (the numpy calls that keep this are named in the docstring), because
the benchmark checks every report against digests of earlier runs and has
no route yet for a change that moves outputs.  The l1 rate sweep cuts each
cell's trials into stacks of at most ``STACK_BYTES`` (1 MiB) of designs:
stacking whole 40-trial cells raised the benchmark sweep's peak RSS by 18%,
1 MiB by 3%, and a 1 MiB stack (four 128 x 256 designs) fits in a per-core
L2 cache (2 MiB on the Xeon it was measured on).  A stack is the unit of
work: ``l1_rate_stack`` draws its trials, each from its own stream, solves
them and returns their errors, and the sweep puts the results back by
trial index, so the cells do not depend on where or in what order the
stacks ran.  Design ranks are read in trial order from a cell's first
stack on, until one reaches full rank, so the sweep reads as many as a
serial loop (a Gaussian design reaches full rank on the first trial).
``workers.forked_map`` runs the stacks on min(CPUs, stacks) forked worker
processes.  Processes and not threads: about half of each lockstep
iteration is numpy call overhead under the GIL, and a 2-thread pool made
the benchmark sweep slower than a serial loop.  The workers run numpy's
bundled OpenBLAS on one thread (``blas``), since unpinned the 128 x 256
gemvs are threaded and 2 workers x 2 threads contend for 2 cores: on a
2-core VM the benchmark sweep took 5.2-7.2 s in 7 of 9 unpinned runs,
against 1.3-1.4 s serial and 0.7-0.9 s pinned.  The parent sets the count
to 1 just before it forks and restores it after the map, so each worker
inherits it: set inside a forked worker, the count restarts OpenBLAS's
thread server (a fork stops its threads), whose helper thread then spins
beside the worker's solve.  Where that library has no thread getter or
setter, there is one stack or one CPU, the caller runs other threads, or
the pool fails (a fork refused, a worker killed), the stacks run
in-process.  Spans that a tracer wraps around library functions are
not seen inside the workers.

Localized l1 supremum.  ``l1_localized_sup`` runs each conditional-gradient
step on Python floats (the gradient read once with ``tolist``, Gram entries
from a nested list), because numpy's per-call cost dominated steps on
vectors of d = 6.  Three things stay numpy, for the same digests: the
gradient c - 2 lam q, formed elementwise into a reused buffer; the update of
q = Gram theta, a sign-flipped Gram row difference; and every dot product,
an OpenBLAS ddot, which a Python sum of the same terms misses on 44% of
random normal 6-vectors.  The away vertex is the first minimum in the
active set's insertion order, as before, since duplicated design columns
tie exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from . import workers
from .chaining import chi_mean
from .gaussian import McEstimate
from .rng import derive_rng, gaussian_design

RANK_RTOL = 1e-10
STACK_BYTES = 1 << 20   # of designs the l1 sweep solves at once; see above
REL_TOL = 1e-4   # of l1_localized_sup, read per call; also the radius's slack
FW_ITERS, MAX_OUTER = 250, 40   # its inner steps per solve, its bisection steps
REL_WIDTH = 1e-3   # relative bracket width that ends the radius bisection
SPARSITY, SWEEP_TOL, SWEEP_MAX_ITER = 3, 1e-4, 1500   # of the l1 rate sweep


class BracketError(ValueError):
    """Invalid bisection bracket for the critical radius."""


class HneViolationError(ValueError):
    """The empirical sphere required by a check is empty."""


@dataclass
class RegressionModel:
    """Design points, ground-truth coefficient, and noise level."""

    x: np.ndarray            # (n, d)
    theta_star: np.ndarray   # (d,)
    sigma: float

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.x.shape[0] < 1:
            raise ValueError("need at least one sample")
        if self.x.shape[1] != self.theta_star.size:
            raise ValueError("design/coefficient dimension mismatch")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def empirical_norm(v) -> float:
    """Root mean square of a value vector."""
    v = np.asarray(v, dtype=float)
    if v.size < 1:
        raise ValueError("empty vector")
    return float(np.sqrt(np.mean(v ** 2)))


def design_rank(X) -> int:
    """Numerical rank: singular values above 1e-10 of the largest."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def col_basis(X) -> np.ndarray:
    """Orthonormal basis of the column space, (n, rank)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return u[:, :0]
    return u[:, s > RANK_RTOL * s[0]]


# -- ERM solvers --------------------------------------------------------------


@dataclass
class ErmResult:
    theta: np.ndarray
    objective: float           # sum of squared residuals
    gap: float                 # optimality gap bound (0 for the exact solver)
    iterations: int
    certified: bool


def solve_ls_linear(X, y) -> ErmResult:
    """Minimum-norm least squares, certified by residual orthogonality (the
    optimality condition itself)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ theta
    ortho = float(np.linalg.norm(X.T @ resid))
    if ortho > 1e-8 * (1.0 + np.linalg.norm(y)) * max(1.0, np.linalg.norm(X)):
        raise RuntimeError("least-squares residual failed the orthogonality check")
    obj = float(np.sum(resid ** 2))
    return ErmResult(theta=theta, objective=obj,
                     gap=0.0, iterations=0, certified=True)


def solve_ls_l1(X, y, R: float, tol: float, max_iter: int) -> ErmResult:
    """Conditional-gradient solver for min ||y - X theta||^2 on the l1 R-ball:
    :func:`solve_ls_l1_batch` on a stack of one."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    return solve_ls_l1_batch(X[None], y[None], R, tol=tol, max_iter=max_iter)[0]


def solve_ls_l1_batch(Xs, ys, R: float, tol: float, max_iter: int) -> list:
    """Conditional gradient run in lockstep over a stack of l1 least-squares
    problems of one shape: Xs is (B, n, d), ys is (B, n), and the result is
    one :class:`ErmResult` per row.

    Per row: the linear-minimization oracle over the ball is a signed vertex
    and steps use exact line search for the quadratic.  Certification
    requires the duality gap (Jaggi 2013) to drop below tol times the initial
    objective; hitting max_iter returns the last iterate flagged
    non-certified.  A row that stops (certified, a zero direction or a zero
    step) takes masked zero steps until every row has stopped; theta + 0 d
    and x + 0 x_dir are exact, so its iterate no longer moves.

    Every row does the floating-point operations of a loop over one problem,
    so results do not depend on the stack they were solved in, and reports
    stay byte-identical to the benchmark's stored digests: the gradient is a
    stacked matmul of the transposed designs with the residuals (one BLAS
    gemv per row, as X.T @ r), grad @ theta and x_dir @ x_dir are stacked
    (1, d) @ (d, 1) matmuls (one dot per row), the vertex column is gathered
    from Xs, and v X_j - x equals -x + v X_j exactly.  einsum, sum(axis=...)
    or a Gram-matrix update would round differently.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    Xs = np.asarray(Xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    B, n, d = Xs.shape
    XsT = Xs.transpose(0, 2, 1)
    rows = np.arange(B)
    row_starts = rows * d
    theta = np.zeros((B, d))
    x_theta = np.zeros((B, n))
    target = np.array([tol * float(np.sum(y ** 2)) for y in ys])
    gap = np.full(B, np.inf)
    iterations = np.zeros(B, dtype=int)   # 0 while a row runs
    active = np.ones(B, dtype=bool)
    live = B
    for it in range(1, max_iter + 1):
        grad = 2.0 * np.matmul(XsT, (x_theta - ys)[:, :, None])[:, :, 0]
        j = np.argmax(np.abs(grad), axis=1)
        flat = row_starts + j
        grad_j = grad.take(flat)
        vertex_val = np.where(grad_j != 0, -R * np.sign(grad_j), R)
        # a stopped row's iterate is frozen, so its gap recomputes to the
        # value it stopped at
        gap = np.matmul(grad[:, None, :], theta[:, :, None])[:, 0, 0] \
            - grad_j * vertex_val
        x_dir = vertex_val[:, None] * Xs[rows, :, j] - x_theta
        denom = 2.0 * np.matmul(x_dir[:, None, :], x_dir[:, :, None])[:, 0, 0]
        positive = denom > 0
        ratio = gap / np.where(positive, denom, 1.0)
        # a row stops once gap <= target, denom <= 0 or its step
        # min(1, max(0, ratio)) is 0; a NaN gap or denom makes that step 0,
        # so the row stops in the iteration where a one-problem loop would
        active &= (gap > target) & positive & (ratio > 0)
        count = np.count_nonzero(active)
        if count < live:
            iterations[~active & (iterations == 0)] = it
            live = count
            if not live:
                break
        gamma = np.where(active, np.minimum(ratio, 1.0), 0.0)[:, None]
        d_theta = -theta
        d_theta.put(flat, d_theta.take(flat) + vertex_val)
        theta += gamma * d_theta
        x_theta += gamma * x_dir
    iterations[iterations == 0] = max_iter
    return [ErmResult(theta=theta[b], objective=float(np.sum((ys[b] - x_theta[b]) ** 2)),
                      gap=float(gap[b]), iterations=int(iterations[b]),
                      certified=bool(gap[b] <= target[b]))
            for b in range(B)]


# -- localized Gaussian complexity --------------------------------------------


def l1_localized_sup(X, w, R: float, delta: float) -> float:
    """sup |w' X theta| / n over the l1 R-ball intersected with the empirical
    delta-ball, by 1-D dual bisection with a conditional-gradient inner solver.

    The feasible set is symmetric so the absolute value drops.  When the best
    l1 vertex already satisfies the norm constraint, the supremum is
    R max_j |X_j' w| / n in closed form.  Inner solves are warm-started
    across bisection steps, which keeps the total iteration count low.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = np.asarray(w, dtype=float)
    n = X.shape[0]
    b = delta * np.sqrt(n)
    c = X.T @ w / n
    cmax = float(np.max(np.abs(c)))
    if cmax == 0.0:
        return 0.0
    j = int(np.argmax(np.abs(c)))
    if R * np.linalg.norm(X[:, j]) <= b * (1 + 1e-12):
        return R * cmax

    d = X.shape[1]
    gram = X.T @ X
    entries = gram.tolist()
    # vertex v is +R e_v for v < d and -R e_(v-d) beyond; row v of signed is
    # its sign times column v mod d of the Gram matrix (a sign flip, exact)
    signed = np.concatenate((gram.T, -gram.T))
    grad, scaled_q = np.empty(d), np.empty(d)
    gap_floor = REL_TOL * 0.01 * cmax * R
    b_sq = b * b

    # state: active vertex weights in insertion order, theta, and q = gram theta
    state = {"w": {0: 0.5, d: 0.5}, "theta": np.zeros(d), "q": np.zeros(d)}

    def inner_max(lam, gap_target):
        """max of c.theta - lam (||X theta||^2 - b^2) over the l1 ball by
        pairwise conditional gradient (linearly convergent on the
        cross-polytope), warm-started across calls."""
        weights, theta, q = state["w"], state["theta"], state["q"]
        lam2 = 2.0 * lam
        fw_gap = np.inf
        for _ in range(FW_ITERS):
            np.subtract(c, np.multiply(lam2, q, out=scaled_q), out=grad)
            g = grad.tolist()
            mags = list(map(abs, g))
            k = mags.index(max(mags))
            s_val = R * mags[k]
            s_sign = 1.0 if g[k] >= 0 else -1.0
            fw_gap = s_val - float(grad.dot(theta))
            if fw_gap <= gap_target:
                break
            # first minimum of sign * grad in insertion order, as min() finds
            signed_g = g + [-x for x in g]
            away = min(weights, key=signed_g.__getitem__)
            aj, asgn = (away, 1.0) if away < d else (away - d, -1.0)
            lin = s_val - asgn * R * g[aj]
            if lin <= 0:
                break
            row_k = entries[k]
            dir_sq = R * R * (row_k[k] + entries[aj][aj]
                              - 2.0 * s_sign * asgn * row_k[aj])
            quad = lam2 * dir_sq
            step_cap = weights[away]
            gamma = step_cap if quad <= 0 else min(step_cap, lin / quad)
            if gamma <= 0:
                break
            theta[k] += gamma * s_sign * R
            theta[aj] -= gamma * asgn * R
            toward = k if s_sign > 0 else k + d
            q += gamma * R * (signed[toward] - signed[away])
            weights[away] -= gamma
            if weights[away] <= 1e-15:
                del weights[away]
            weights[toward] = weights.get(toward, 0.0) + gamma
        norm_sq = float(theta @ q)
        val = float(c @ theta - lam * (norm_sq - b_sq))
        return np.sqrt(max(norm_sq, 0.0)), val + max(fw_gap, 0.0)

    def feasible_value():
        norm = np.sqrt(max(float(state["theta"] @ state["q"]), 0.0))
        shrink = min(1.0, b / norm) if norm > 0 else 1.0
        return float(c @ state["theta"]) * shrink

    loose = max(gap_floor, 1e-3 * cmax * R)
    lam_lo = 0.0
    lam_hi = max(n * cmax / (2.0 * b_sq), 1e-12)
    for _ in range(80):
        norm, _ = inner_max(lam_hi, loose)
        if norm <= b:
            break
        lam_lo = lam_hi
        lam_hi *= 2.0

    # bracketing phase with loose inner solves, then certified tight solves
    best_ub = np.inf
    best_lb = 0.0
    for outer in range(MAX_OUTER):
        lam = 0.5 * (lam_lo + lam_hi)
        tight = outer >= 8 or (lam_hi - lam_lo) <= 1e-2 * lam_hi
        norm, ub = inner_max(lam, gap_floor if tight else loose)
        if tight:
            best_ub = min(best_ub, ub)
            best_lb = max(best_lb, feasible_value())
            if best_ub - best_lb <= REL_TOL * max(best_ub, 1e-30):
                break
        if norm > b:
            lam_lo = lam
        else:
            lam_hi = lam
    return best_lb


def _l1_sup_row(X, R: float, delta: float, w) -> float:
    """l1_localized_sup of one noise row, looked up on this module when it
    runs, as a tracer that wraps it expects."""
    return l1_localized_sup(X, w, R, delta)


# -- function classes ---------------------------------------------------------


@dataclass(frozen=True)
class LinearClass:
    """All linear predictors x -> <theta, x>, theta in R^d."""

    kind: ClassVar[str] = "linear"

    def inner_sups(self, X, w, delta: float, pmap) -> np.ndarray:
        """Closed form: per row, sup over {||X theta|| <= delta sqrt n} of
        |w' X theta| / n equals (delta / sqrt n) ||P w|| with P the
        column-space projector; one batched product for all rows, so pmap
        goes unused."""
        return delta / np.sqrt(X.shape[0]) * np.linalg.norm(w @ col_basis(X), axis=1)

    def reach(self, X) -> float:
        """Every radius when the design has positive rank, none otherwise."""
        return np.inf if col_basis(X).shape[1] else 0.0


@dataclass(frozen=True)
class L1BallClass:
    """Linear predictors with ||theta||_1 <= R."""

    R: float
    kind: ClassVar[str] = "l1"

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")

    def inner_sups(self, X, w, delta: float, pmap) -> np.ndarray:
        """Dual conditional gradient per row (l1_localized_sup), the rows
        mapped by pmap."""
        return np.asarray(list(pmap(partial(_l1_sup_row, X, self.R, delta), w)))

    def reach(self, X) -> float:
        """R max_j ||X_j|| / sqrt(n), attained at a signed vertex."""
        return self.R * float(np.max(np.linalg.norm(X, axis=0))) / np.sqrt(X.shape[0])


def localized_complexity_mc(X, cls, delta: float, n_samples: int,
                            seed: int) -> McEstimate:
    """Monte Carlo localized complexity: per noise draw the inner supremum is
    solved (closed form for the linear class, dual conditional gradient for
    the l1 class) and averaged.

    The localized ball always contains 0, so nonemptiness holds by
    construction; the inner value is checked finite before averaging.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2 for a standard error")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    rng = derive_rng(seed, "lgc-mc", n, X.shape[1], cls.kind)
    w = rng.standard_normal((n_samples, n))
    with workers.forked_pool() as pmap:
        vals = cls.inner_sups(X, w, delta, pmap)
    if not np.isfinite(vals).all():
        raise HneViolationError("inner supremum not finite on some draw")
    return McEstimate.from_samples(vals)


# -- critical radius ----------------------------------------------------------


@dataclass
class CriticalRadius:
    delta_star: float
    degenerate: bool
    ratios: np.ndarray         # G(delta)/delta at 8 log-spaced radii
    ratio_monotone: bool


def critical_radius(model: RegressionModel, cls, bracket, n_samples: int,
                    seed: int) -> CriticalRadius:
    """Smallest radius balancing complexity against noise, by bisection of
    h(delta) = G(delta)/delta - delta/(2 sigma) on a frozen noise panel.

    The panel makes h deterministic during the solve; the complexity ratio
    G(delta)/delta is also checked to be nonincreasing at 8 log-spaced radii.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise BracketError("need 0 < lo < hi")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    X = model.x
    n = model.n
    panel = derive_rng(seed, "cr-panel", n, model.d).standard_normal((n_samples, n))
    with workers.forked_pool() as pmap:

        def g(delta):
            return float(np.mean(cls.inner_sups(X, panel, delta, pmap)))

        def h(delta, g_delta):
            return g_delta / delta - delta / (2.0 * model.sigma)

        # geomspace pins both endpoints, so g(lo) and g(hi) are read off the grid
        deltas = np.geomspace(lo, hi, 8)
        g_grid = [g(dd) for dd in deltas]
        ratios = np.asarray([gd / dd for gd, dd in zip(g_grid, deltas)])
        slack = 2.0 * REL_TOL * (np.abs(ratios[:-1]) + 1e-30)
        monotone = bool((np.diff(ratios) <= slack).all())

        if g_grid[0] <= 1e-15 * (1.0 + model.sigma):
            return CriticalRadius(delta_star=lo, degenerate=True, ratios=ratios,
                                  ratio_monotone=monotone)
        h_lo, h_hi = h(lo, g_grid[0]), h(hi, g_grid[-1])
        if not (h_lo > 0 >= h_hi):
            raise BracketError(
                f"invalid bracket: h({lo:.6g}) = {h_lo:.6g}, h({hi:.6g}) = {h_hi:.6g}")
        while (hi - lo) > REL_WIDTH * 0.5 * (hi + lo):
            mid = 0.5 * (lo + hi)
            if h(mid, g(mid)) > 0:
                lo = mid
            else:
                hi = mid
    # the upper endpoint is the certified side: h(hi) <= 0 throughout, so the
    # returned radius satisfies the balance inequality on the panel
    return CriticalRadius(delta_star=float(hi), degenerate=False, ratios=ratios,
                          ratio_monotone=monotone)


# -- bad-event probability ----------------------------------------------------


def estimate_bad_event_probability(model: RegressionModel, cls, u: float,
                                   trials: int, seed: int) -> McEstimate:
    """Frequency of {sup over the radius-u localized set of |sigma w'Xtheta/n|
    >= 2 u^2}.

    Nonemptiness of the empirical sphere at radius u is checked first
    against the class's reach.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if trials < 2:
        raise ValueError("trials must be at least 2 for a standard error")
    X = model.x
    n = model.n
    reach = cls.reach(X)
    if u > reach * (1 + 1e-12):
        raise HneViolationError(
            f"radius {u:.6g} exceeds the attainable norm {reach:.6g}")
    w = derive_rng(seed, "bad-event", n).standard_normal((trials, n))
    with workers.forked_pool() as pmap:
        sups = model.sigma * cls.inner_sups(X, w, u, pmap)
    return McEstimate.from_samples((sups >= 2.0 * u ** 2).astype(float))


# -- rate experiments ---------------------------------------------------------


@dataclass
class RateCell:
    n: int
    d: int
    rank: int
    delta_star: float
    median_err: float
    normalized: float


@dataclass
class RateReport:
    cells: list
    slopes: dict              # d -> log-log slope of median error vs n
    params: dict


def _slopes_by_dimension(cells):
    """Least-squares slope of log median error against log n for each d
    whose cells hold two or more distinct n, all with positive errors; a
    line through one n is not determined, so other d get no slope."""
    slopes = {}
    by_d = {}
    for cell in cells:
        by_d.setdefault(cell.d, []).append(cell)
    for d, group in by_d.items():
        if (len({c.n for c in group}) >= 2
                and all(c.median_err > 0 for c in group)):
            ns = np.log([c.n for c in group])
            errs = np.log([c.median_err for c in group])
            slopes[d] = float(np.polyfit(ns, errs, 1)[0])
    return slopes


def linear_rate_experiment(grid, sigma: float, trials: int, seed: int) -> RateReport:
    """Median normalized error n err / (sigma^2 rank) and critical radius
    per (n, d) cell on fresh Gaussian designs, plus log-log slopes in n.

    The radius is exact: a rank-r design has G(delta) = delta E chi_r /
    sqrt(n), which balances delta / (2 sigma) at delta* = 2 sigma E chi_r /
    sqrt(n) (Wainwright 2019, ch. 13), r the cell's largest rank."""
    cells = []
    for (n, d) in grid:
        if n < d:
            raise ValueError("the linear sweep requires n >= d")
        errs = np.empty(trials)
        normd = np.empty(trials)
        rank_seen = 0
        for trial in range(trials):
            rng = derive_rng(seed, "lin-rate", n, d, trial)
            X = rng.standard_normal((n, d))
            theta_star = rng.standard_normal(d)
            w = rng.standard_normal(n)
            y = X @ theta_star + sigma * w
            res = solve_ls_linear(X, y)
            r = design_rank(X)
            rank_seen = max(rank_seen, r)
            err = empirical_norm(X @ (res.theta - theta_star)) ** 2
            errs[trial] = err
            normd[trial] = n * err / (sigma ** 2 * max(r, 1))
        dstar = 2.0 * sigma * chi_mean(rank_seen) / math.sqrt(n)
        cells.append(RateCell(n=n, d=d, rank=rank_seen, delta_star=dstar,
                              median_err=float(np.median(errs)),
                              normalized=float(np.median(normd))))
    return RateReport(cells=cells, slopes=_slopes_by_dimension(cells),
                      params={"sigma": sigma, "trials": trials, "seed": seed})


def l1_rate_stack(R: float, sigma: float, seed: int, task) -> tuple:
    """One stack of the l1 rate sweep, task = (n, d, first, stop): the trials
    first..stop-1 of the cell n x d, each drawn from its own stream and all
    solved in lockstep.  Returns the squared empirical error of each trial
    and the highest design rank read.  Only a cell's first stack (first = 0)
    reads ranks, in trial order until one reaches min(n, d), the highest
    rank any design of the cell can have; the other stacks return rank 0."""
    n, d, first, stop = task
    Xs = np.empty((stop - first, n, d))
    ys = np.empty((stop - first, n))
    truths = []
    for k, trial in enumerate(range(first, stop)):
        rng = derive_rng(seed, "l1-rate", n, d, trial)
        X = Xs[k]
        X[:] = gaussian_design(rng, n, d)
        support = rng.choice(d, size=min(SPARSITY, d), replace=False)
        mags = rng.dirichlet(np.ones(support.size)) * 0.9 * R
        theta_star = np.zeros(d)
        theta_star[support] = mags * rng.choice([-1.0, 1.0], size=support.size)
        w = rng.standard_normal(n)
        ys[k] = X @ theta_star + sigma * w
        truths.append(theta_star)
    results = solve_ls_l1_batch(Xs, ys, R, tol=SWEEP_TOL, max_iter=SWEEP_MAX_ITER)
    errs = np.empty(stop - first)
    rank = 0
    for k, (res, theta_star) in enumerate(zip(results, truths)):
        if first == 0 and rank < min(n, d):
            rank = max(rank, design_rank(Xs[k]))
        errs[k] = empirical_norm(Xs[k] @ (res.theta - theta_star)) ** 2
    return errs, rank


def l1_rate_experiment(grid, R: float, sigma: float, trials: int,
                       seed: int) -> RateReport:
    """Median error normalized by R^2 log(d)/n per cell, allowing d > n.

    Designs are column-rescaled to norm exactly sqrt(n); the truth is sparse
    with l1 mass 0.9 R, strictly inside the constraint ball.  Each cell's
    trials are cut into stacks of at most ``STACK_BYTES`` of designs, and
    :func:`workers.forked_map` runs :func:`l1_rate_stack` on every stack.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if any(d < 2 for _, d in grid):
        raise ValueError("the l1 sweep requires d >= 2")
    widths = [max(1, min(trials, STACK_BYTES // (8 * n * d))) for n, d in grid]
    owners, tasks = [], []
    for i, ((n, d), width) in enumerate(zip(grid, widths)):
        for first in range(0, trials, width):
            owners.append(i)
            tasks.append((n, d, first, min(first + width, trials)))
    errs = np.empty((len(grid), trials))
    ranks = [0] * len(grid)
    results = workers.forked_map(partial(l1_rate_stack, R, sigma, seed), tasks)
    for i, (_, _, first, stop), (stack_errs, rank) in zip(owners, tasks, results):
        errs[i, first:stop] = stack_errs
        ranks[i] = max(ranks[i], rank)
    for i, ((n, d), width) in enumerate(zip(grid, widths)):
        # a first stack short of full rank read all its designs; the reads
        # go on from the next trial, whose design is its stream's first draw
        for trial in range(width, trials):
            if ranks[i] >= min(n, d):
                break
            X = gaussian_design(derive_rng(seed, "l1-rate", n, d, trial), n, d)
            ranks[i] = max(ranks[i], design_rank(X))
    cells = [RateCell(n=n, d=d, rank=rank, delta_star=float("nan"),
                      median_err=float(np.median(cell_errs)),
                      normalized=float(np.median(cell_errs / (R ** 2 * np.log(d) / n))))
             for (n, d), rank, cell_errs in zip(grid, ranks, errs)]
    return RateReport(cells=cells, slopes=_slopes_by_dimension(cells),
                      params={"R": R, "sigma": sigma, "trials": trials,
                              "seed": seed})
