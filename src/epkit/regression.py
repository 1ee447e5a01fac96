"""Localized least-squares machinery: regression models, exact and
l1-constrained empirical risk minimizers with optimality certificates,
localized Gaussian complexity, the critical radius, the high-probability
error-bound experiment, and rate sweeps for the linear and l1 classes.

Conventions.  Designs are n x d arrays; the empirical norm of a value vector
is its root mean square.  The shifted-class coefficient for the l1 class is
constrained to the R-ball directly; experiments keep the truth in the ball's
interior so the shifted class is star-shaped.

Function classes.  ``LinearClass`` and ``L1BallClass`` hold all that differs
between the two classes, so no experiment branches on the class:
``solve(X, y)`` is the ERM without random probes, ``inner_sups(X, w, delta,
rel_tol)`` the supremum of w' X theta / n over the class within the empirical
delta-ball for each noise row of w, ``reach(X)`` the largest empirical norm
the class attains, and ``discretize(X, delta, resolution)`` a deterministic
point cloud in the image of the localized ball.  The class constant ``kind``
labels the class in derived random streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import ndtri

from . import metric
from .gaussian import McEstimate
from .rng import derive_rng, gaussian_design, l1_ball_point

RANK_RTOL = 1e-10
CAPACITY_CONST = 24.0 * np.sqrt(2.0)


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

    def response(self, w) -> np.ndarray:
        """y_i = <theta_star, x_i> + sigma w_i, exactly."""
        w = np.asarray(w, dtype=float)
        return self.x @ self.theta_star + self.sigma * w


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
    certificate: float         # max objective excess over random feasible probes
    gap: float                 # optimality gap bound (0 for the exact solver)
    iterations: int
    certified: bool


def _probe_certificate(X, y, theta_hat, obj_hat, sampler, n_probes):
    worst = -np.inf
    for _ in range(n_probes):
        theta = sampler()
        obj = float(np.sum((y - X @ theta) ** 2))
        worst = max(worst, obj_hat - obj)
    return worst if n_probes else 0.0


def solve_ls_linear(X, y, probes: int = 100, probe_seed: int = 0) -> ErmResult:
    """Minimum-norm least squares, with residual-orthogonality and random-probe
    optimality certificates."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ theta
    ortho = float(np.linalg.norm(X.T @ resid))
    if ortho > 1e-8 * (1.0 + np.linalg.norm(y)) * max(1.0, np.linalg.norm(X)):
        raise RuntimeError("least-squares residual failed the orthogonality check")
    obj = float(np.sum(resid ** 2))
    rng = derive_rng(probe_seed, "erm-probes", X.shape[0], X.shape[1])
    scale = 1.0 + float(np.linalg.norm(theta))

    def sampler():
        return theta + scale * rng.standard_normal(theta.size)

    cert = _probe_certificate(X, y, theta, obj, sampler, probes)
    return ErmResult(theta=theta, objective=obj, certificate=cert,
                     gap=0.0, iterations=0, certified=True)


def solve_ls_l1(X, y, R: float, tol: float = 1e-6, max_iter: int = 5000,
                probes: int = 100, probe_seed: int = 0) -> ErmResult:
    """Conditional-gradient solver for min ||y - X theta||^2 on the l1 R-ball.

    The linear-minimization oracle over the ball is a signed vertex; steps use
    exact line search for the quadratic.  Certification requires the duality
    gap to drop below tol times the initial objective; hitting max_iter
    returns the best iterate flagged non-certified.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    theta = np.zeros(d)
    x_theta = np.zeros(n)
    f0 = float(np.sum(y ** 2))
    target = tol * f0
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = 2.0 * (X.T @ (x_theta - y))
        j = int(np.argmax(np.abs(grad)))
        vertex_val = -R * np.sign(grad[j]) if grad[j] != 0 else R
        gap = float(grad @ theta - grad[j] * vertex_val)
        if gap <= target:
            break
        d_theta = -theta.copy()
        d_theta[j] += vertex_val
        x_dir = -x_theta + vertex_val * X[:, j]
        denom = 2.0 * float(x_dir @ x_dir)
        if denom <= 0:
            break
        gamma = min(1.0, max(0.0, gap / denom))
        if gamma == 0.0:
            break
        theta = theta + gamma * d_theta
        x_theta = x_theta + gamma * x_dir
    certified = gap <= target
    obj = float(np.sum((y - x_theta) ** 2))
    rng = derive_rng(probe_seed, "erm-probes-l1", n, d)

    cert = _probe_certificate(X, y, theta, obj, lambda: l1_ball_point(rng, d, R),
                              probes)
    return ErmResult(theta=theta, objective=obj, certificate=cert,
                     gap=float(gap), iterations=it, certified=certified)


# -- localized Gaussian complexity --------------------------------------------


def localized_complexity_linear_exact(X, delta: float, n_samples: int,
                                      seed: int) -> McEstimate:
    """Localized complexity of the linear class from its closed-form inner
    supremum (LinearClass.inner_sups), on a noise stream of its own."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    rng = derive_rng(seed, "lgc-exact", n, X.shape[1])
    w = rng.standard_normal((n_samples, n))
    return McEstimate.from_samples(LinearClass().inner_sups(X, w, delta))


def l1_localized_sup(X, w, R: float, delta: float, rel_tol: float = 1e-4,
                     fw_iters: int = 250, max_outer: int = 40) -> float:
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
    gap_floor = rel_tol * 0.01 * cmax * R
    b_sq = b * b

    # state: active vertex weights over {+-R e_j}, theta, and q = gram theta
    state = {"w": {(0, 1.0): 0.5, (0, -1.0): 0.5}, "theta": np.zeros(d),
             "q": np.zeros(d)}

    def inner_max(lam, gap_target):
        """max of c.theta - lam (||X theta||^2 - b^2) over the l1 ball by
        pairwise conditional gradient (linearly convergent on the
        cross-polytope), warm-started across calls."""
        weights, theta, q = state["w"], state["theta"], state["q"]
        fw_gap = np.inf
        for _ in range(fw_iters):
            grad = c - 2.0 * lam * q
            k = int(np.argmax(np.abs(grad)))
            s_val = R * abs(grad[k])
            s_sign = 1.0 if grad[k] >= 0 else -1.0
            fw_gap = float(s_val - grad @ theta)
            if fw_gap <= gap_target:
                break
            away_key = min(weights, key=lambda v: v[1] * grad[v[0]])
            aj, asgn = away_key
            lin = float(s_val - asgn * R * grad[aj])
            if lin <= 0:
                break
            dir_sq = R * R * (gram[k, k] + gram[aj, aj]
                              - 2.0 * s_sign * asgn * gram[k, aj])
            quad = 2.0 * lam * dir_sq
            step_cap = weights[away_key]
            gamma = step_cap if quad <= 0 else min(step_cap, lin / quad)
            if gamma <= 0:
                break
            theta[k] += gamma * s_sign * R
            theta[aj] -= gamma * asgn * R
            q += gamma * R * (s_sign * gram[:, k] - asgn * gram[:, aj])
            weights[away_key] -= gamma
            if weights[away_key] <= 1e-15:
                del weights[away_key]
            skey = (k, s_sign)
            weights[skey] = weights.get(skey, 0.0) + gamma
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
    for outer in range(max_outer):
        lam = 0.5 * (lam_lo + lam_hi)
        tight = outer >= 8 or (lam_hi - lam_lo) <= 1e-2 * lam_hi
        norm, ub = inner_max(lam, gap_floor if tight else loose)
        if tight:
            best_ub = min(best_ub, ub)
            best_lb = max(best_lb, feasible_value())
            if best_ub - best_lb <= rel_tol * max(best_ub, 1e-30):
                break
        if norm > b:
            lam_lo = lam
        else:
            lam_hi = lam
    return best_lb


# -- function classes ---------------------------------------------------------


def _halton_normals(dim: int, resolution: int):
    """First `resolution` unscrambled Halton points in [0, 1]^(dim + 1): the
    first dim coordinates as standard normal quantiles, and the last one."""
    # imported here: scipy.stats is the heaviest import in epkit and nothing
    # else needs it, so `import epkit.cli` does not pay for it
    from scipy.stats import qmc

    pts = qmc.Halton(d=dim + 1, scramble=False).random(resolution)
    return ndtri(np.clip(pts[:, :dim], 1e-12, 1 - 1e-12)), pts[:, dim]


@dataclass(frozen=True)
class LinearClass:
    """All linear predictors x -> <theta, x>, theta in R^d."""

    kind: ClassVar[str] = "linear"

    def solve(self, X, y) -> ErmResult:
        return solve_ls_linear(X, y, probes=0)

    def inner_sups(self, X, w, delta: float, rel_tol: float = 1e-4) -> np.ndarray:
        """Closed form: per row, sup over {||X theta|| <= delta sqrt n} of
        |w' X theta| / n equals (delta / sqrt n) ||P w|| with P the
        column-space projector; being exact, it ignores rel_tol."""
        return delta / np.sqrt(X.shape[0]) * np.linalg.norm(w @ col_basis(X), axis=1)

    def reach(self, X) -> float:
        """Every radius when the design has positive rank, none otherwise."""
        return np.inf if col_basis(X).shape[1] else 0.0

    def discretize(self, X, delta: float, resolution: int) -> np.ndarray:
        """Halton directions in the column space, radii spread uniformly in
        volume up to delta."""
        n = X.shape[0]
        u = col_basis(X)
        r = u.shape[1]
        if r == 0:
            return np.zeros((1, n))
        z, last = _halton_normals(r, resolution)
        if r == 1:
            dirs = np.sign(z)
            dirs[dirs == 0] = 1.0
        else:
            dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
        radii = delta * last ** (1.0 / r)
        cloud = (radii[:, None] * dirs) @ u.T
        return np.vstack([np.zeros((1, n)), cloud])


@dataclass(frozen=True)
class L1BallClass:
    """Linear predictors with ||theta||_1 <= R."""

    R: float
    kind: ClassVar[str] = "l1"

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")

    def solve(self, X, y) -> ErmResult:
        return solve_ls_l1(X, y, self.R, probes=0)

    def inner_sups(self, X, w, delta: float, rel_tol: float = 1e-4) -> np.ndarray:
        """Dual conditional gradient per row (l1_localized_sup)."""
        return np.asarray([l1_localized_sup(X, row, self.R, delta, rel_tol=rel_tol)
                           for row in w])

    def reach(self, X) -> float:
        """R max_j ||X_j|| / sqrt(n), attained at a signed vertex."""
        return self.R * float(np.max(np.linalg.norm(X, axis=0))) / np.sqrt(X.shape[0])

    def discretize(self, X, delta: float, resolution: int) -> np.ndarray:
        """Halton points of the l1 ball plus its vertices, mapped to values
        and shrunk radially into the empirical delta-ball."""
        n, d = X.shape
        z, last = _halton_normals(d, resolution)
        l1 = np.abs(z).sum(axis=1)
        thetas = self.R * last[:, None] * z / np.where(l1 > 0, l1, 1.0)[:, None]
        vertices = self.R * np.vstack([np.eye(d), -np.eye(d)])
        thetas = np.vstack([thetas, vertices])
        img = thetas @ X.T / np.sqrt(n)
        norms = np.linalg.norm(img, axis=1)
        shrink = np.minimum(1.0, delta / np.where(norms > 0, norms, 1.0))
        return np.vstack([np.zeros((1, n)), shrink[:, None] * img])


def localized_complexity_mc(X, cls, delta: float, n_samples: int,
                            seed: int, rel_tol: float = 1e-4) -> McEstimate:
    """Monte Carlo localized complexity: per noise draw the inner supremum is
    solved (closed form for the linear class, dual conditional gradient for
    the l1 class) and averaged.

    The localized ball always contains 0, so nonemptiness holds by
    construction; the inner value is checked finite before averaging.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    rng = derive_rng(seed, "lgc-mc", n, X.shape[1], cls.kind)
    w = rng.standard_normal((n_samples, n))
    vals = cls.inner_sups(X, w, delta, rel_tol)
    if not np.isfinite(vals).all():
        raise HneViolationError("inner supremum not finite on some draw")
    return McEstimate.from_samples(vals)


# -- critical radius ----------------------------------------------------------


@dataclass
class CriticalRadius:
    delta_star: float
    degenerate: bool
    bracket: tuple
    ratio_deltas: np.ndarray
    ratios: np.ndarray
    ratio_monotone: bool


def critical_radius(model: RegressionModel, cls, bracket, n_samples: int = 2000,
                    seed: int = 0, rel_width: float = 1e-3,
                    rel_tol: float = 1e-4) -> CriticalRadius:
    """Smallest radius balancing complexity against noise, by bisection of
    h(delta) = G(delta)/delta - delta/(2 sigma) on a frozen noise panel.

    The panel makes h deterministic during the solve; the complexity ratio
    G(delta)/delta is also checked to be nonincreasing at 8 log-spaced radii.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise BracketError("need 0 < lo < hi")
    X = model.x
    n = model.n
    panel = derive_rng(seed, "cr-panel", n, model.d).standard_normal((n_samples, n))

    def g(delta):
        return float(np.mean(cls.inner_sups(X, panel, delta, rel_tol)))

    def h(delta):
        return g(delta) / delta - delta / (2.0 * model.sigma)

    deltas = np.geomspace(lo, hi, 8)
    ratios = np.asarray([g(dd) / dd for dd in deltas])
    slack = 2.0 * rel_tol * (np.abs(ratios[:-1]) + 1e-30)
    monotone = bool((np.diff(ratios) <= slack).all())

    if g(lo) <= 1e-15 * (1.0 + model.sigma):
        return CriticalRadius(delta_star=lo, degenerate=True, bracket=(lo, hi),
                              ratio_deltas=deltas, ratios=ratios,
                              ratio_monotone=monotone)
    h_lo, h_hi = h(lo), h(hi)
    if not (h_lo > 0 >= h_hi):
        raise BracketError(
            f"invalid bracket: h({lo:.6g}) = {h_lo:.6g}, h({hi:.6g}) = {h_hi:.6g}")
    while (hi - lo) > rel_width * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    # the upper endpoint is the certified side: h(hi) <= 0 throughout, so the
    # returned radius satisfies the balance inequality on the panel
    return CriticalRadius(delta_star=float(hi), degenerate=False,
                          bracket=(float(bracket[0]), float(bracket[1])),
                          ratio_deltas=deltas, ratios=ratios,
                          ratio_monotone=monotone)


def auto_bracket(model: RegressionModel) -> tuple:
    """A bracket [lo, hi] for the critical radius of either class, in closed
    form: hi = 4 sigma sqrt(rank / n) + sigma, lo = 1e-6 hi."""
    n = model.n
    r = max(design_rank(model.x), 1)
    hi = 4.0 * model.sigma * np.sqrt(r / n) + model.sigma
    lo = hi * 1e-6
    return lo, hi


# -- error-bound experiment ---------------------------------------------------


def master_bound_experiment(model: RegressionModel, cls, t: float, trials: int,
                            seed: int, delta_star: float = None,
                            n_samples: int = 2000):
    """(frequency of squared error >= 16 t delta_star, exp(-n t delta_star /
    (2 sigma^2))) over independent noise draws."""
    if delta_star is None:
        delta_star = critical_radius(model, cls, auto_bracket(model),
                                     n_samples=n_samples, seed=seed).delta_star
    if t < delta_star * (1 - 1e-12):
        raise ValueError("t must be at least the critical radius")
    X = model.x
    hits = np.empty(trials)
    for trial in range(trials):
        w = derive_rng(seed, "mbe-trial", trial).standard_normal(model.n)
        y = model.response(w)
        res = cls.solve(X, y)
        err_sq = empirical_norm(X @ (res.theta - model.theta_star)) ** 2
        hits[trial] = 1.0 if err_sq >= 16.0 * t * delta_star else 0.0
    freq = McEstimate.from_samples(hits)
    bound = float(np.exp(-model.n * t * delta_star / (2.0 * model.sigma ** 2)))
    return freq, bound


def estimate_bad_event_probability(model: RegressionModel, cls, u: float,
                                   trials: int, seed: int,
                                   threshold: float = None) -> McEstimate:
    """Frequency of {sup over the radius-u localized set of |sigma w'Xtheta/n|
    >= threshold}, threshold defaulting to 2 u^2.

    Nonemptiness of the empirical sphere at radius u is checked first
    against the class's reach.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if threshold is None:
        threshold = 2.0 * u ** 2
    X = model.x
    n = model.n
    reach = cls.reach(X)
    if u > reach * (1 + 1e-12):
        raise HneViolationError(
            f"radius {u:.6g} exceeds the attainable norm {reach:.6g}")
    w = derive_rng(seed, "bad-event", n).standard_normal((trials, n))
    sups = model.sigma * cls.inner_sups(X, w, u)
    return McEstimate.from_samples((sups >= threshold).astype(float))


# -- capacity bound via the entropy integral ----------------------------------


def discretize_localized_ball(X, cls, delta: float, resolution: int = 200) -> np.ndarray:
    """Deterministic low-discrepancy point cloud in the empirical-metric image
    of the localized ball (rows are value vectors divided by sqrt(n))."""
    return cls.discretize(np.atleast_2d(np.asarray(X, dtype=float)), delta,
                          resolution)


def dudley_capacity_bound(X, cls, delta: float, resolution: int = 200,
                          nodes: int = 64) -> float:
    """24 sqrt2 / sqrt(n) times the entropy integral over (0, 2 delta] of the
    discretized localized-ball image."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    cloud = discretize_localized_ball(X, cls, delta, resolution)
    ms = metric.FiniteMetricSet.from_points(cloud)
    integral = metric.entropy_integral(ms, 2.0 * delta, nodes=nodes)
    return float(CAPACITY_CONST / np.sqrt(n) * integral)


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
    params: dict = field(default_factory=dict)


def _slopes_by_dimension(cells):
    slopes = {}
    by_d = {}
    for cell in cells:
        by_d.setdefault(cell.d, []).append(cell)
    for d, group in by_d.items():
        if len(group) >= 2 and all(c.median_err > 0 for c in group):
            ns = np.log([c.n for c in group])
            errs = np.log([c.median_err for c in group])
            slopes[d] = float(np.polyfit(ns, errs, 1)[0])
    return slopes


def linear_rate_experiment(grid, sigma: float, trials: int, seed: int,
                           with_delta_star: bool = True) -> RateReport:
    """Median normalized error n err / (sigma^2 rank) per (n, d) cell on
    fresh Gaussian designs, plus log-log slopes of median error in n."""
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
            res = solve_ls_linear(X, y, probes=0)
            r = design_rank(X)
            rank_seen = max(rank_seen, r)
            err = empirical_norm(X @ (res.theta - theta_star)) ** 2
            errs[trial] = err
            normd[trial] = n * err / (sigma ** 2 * max(r, 1))
        dstar = np.nan
        if with_delta_star:
            rng = derive_rng(seed, "lin-rate-model", n, d)
            model = RegressionModel(x=rng.standard_normal((n, d)),
                                    theta_star=np.zeros(d), sigma=sigma)
            dstar = critical_radius(model, LinearClass(), auto_bracket(model),
                                    n_samples=500, seed=seed).delta_star
        cells.append(RateCell(n=n, d=d, rank=rank_seen, delta_star=float(dstar),
                              median_err=float(np.median(errs)),
                              normalized=float(np.median(normd))))
    return RateReport(cells=cells, slopes=_slopes_by_dimension(cells),
                      params={"sigma": sigma, "trials": trials, "seed": seed})


def l1_rate_experiment(grid, R: float, sigma: float, trials: int, seed: int,
                       sparsity: int = 3, tol: float = 1e-4,
                       max_iter: int = 1500) -> RateReport:
    """Median error normalized by R^2 log(d)/n per cell, allowing d > n.

    Designs are column-rescaled to norm exactly sqrt(n); the truth is sparse
    with l1 mass 0.9 R, strictly inside the constraint ball.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    cells = []
    for (n, d) in grid:
        if d < 2:
            raise ValueError("the l1 sweep requires d >= 2")
        errs = np.empty(trials)
        normd = np.empty(trials)
        rank_seen = 0
        for trial in range(trials):
            rng = derive_rng(seed, "l1-rate", n, d, trial)
            X = gaussian_design(rng, n, d)
            support = rng.choice(d, size=min(sparsity, d), replace=False)
            mags = rng.dirichlet(np.ones(support.size)) * 0.9 * R
            theta_star = np.zeros(d)
            theta_star[support] = mags * rng.choice([-1.0, 1.0], size=support.size)
            w = rng.standard_normal(n)
            y = X @ theta_star + sigma * w
            res = solve_ls_l1(X, y, R, tol=tol, max_iter=max_iter, probes=0)
            rank_seen = max(rank_seen, design_rank(X))
            err = empirical_norm(X @ (res.theta - theta_star)) ** 2
            errs[trial] = err
            normd[trial] = err / (R ** 2 * np.log(d) / n)
        cells.append(RateCell(n=n, d=d, rank=rank_seen, delta_star=float("nan"),
                              median_err=float(np.median(errs)),
                              normalized=float(np.median(normd))))
    return RateReport(cells=cells, slopes=_slopes_by_dimension(cells),
                      params={"R": R, "sigma": sigma, "trials": trials,
                              "seed": seed})
