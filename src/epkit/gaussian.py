"""Monte Carlo checks of the Gaussian functional-inequality chain: variance
versus derivative energy, entropy of f^2 versus gradient energy, the
cumulant-bound endpoint for Lipschitz functions, two-sided tails, finite
maxima, and 1-D smoothing by a compactly supported bump kernel.

Sampling uses numpy's PCG64 generator (ziggurat normals) through seeded
substreams from :mod:`epkit.rng`; identical (seed, parameters) reproduce every
estimate bit-for-bit on a fixed numpy version.

Vectorization contract: a field's ``eval`` maps an (m, dim) array to (m,) and
``grad`` maps (m, dim) to (m, dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import derive_rng

FD_POINTS, FD_STEP, FD_TOL = 100, 1e-5, 1e-4   # the finite-difference check
LIP_PAIRS, LIP_SCALE = 1000, 2.0   # the Lipschitz check: pairs, normals' scale


class IntegrabilityError(RuntimeError):
    """Empirical overflow where an integrability hypothesis is required."""


class OracleValidationError(ValueError):
    """A declared gradient or Lipschitz constant failed its spot check."""


@dataclass
class McEstimate:
    """Monte Carlo mean with standard error and a 95% normal interval."""

    mean: float
    stderr: float
    n_samples: int

    @property
    def ci95(self):
        return (self.mean - 1.96 * self.stderr, self.mean + 1.96 * self.stderr)

    @classmethod
    def from_samples(cls, x):
        x = np.asarray(x, dtype=float)
        n = x.size
        if n < 2:
            raise ValueError("need at least two samples")
        sd = float(np.std(x, ddof=1))
        return cls(mean=float(np.mean(x)), stderr=sd / np.sqrt(n), n_samples=n)


def as_estimate(x) -> McEstimate:
    """x if it is an estimate, else the exact value x with stderr 0."""
    return x if isinstance(x, McEstimate) else McEstimate(float(x), 0.0, 0)


def three_sigma_margin(lhs: McEstimate, rhs) -> float:
    """Slack of the one-sided contract lhs <= rhs + 3 (combined stderr), the
    one Monte Carlo contract of the package; rhs is an estimate or exact."""
    rhs = as_estimate(rhs)
    return rhs.mean + 3.0 * (lhs.stderr + rhs.stderr) - lhs.mean


@dataclass
class ScalarField:
    """A real field on R^dim with optional gradient and Lipschitz constant."""

    dim: int
    eval: callable
    grad: callable = None
    lipschitz: float = None
    name: str = ""
    _grad_checked: bool = field(default=False, init=False, repr=False)
    _lip_checked: bool = field(default=False, init=False, repr=False)

    def validate_gradient(self):
        """Central finite differences against the declared gradient."""
        if self.grad is None:
            raise OracleValidationError("field has no gradient oracle")
        rng = derive_rng(0, "fd-check", self.name, self.dim)
        x = rng.standard_normal((FD_POINTS, self.dim))
        g = np.asarray(self.grad(x), dtype=float)
        fd = np.empty_like(g)
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = FD_STEP
            fd[:, j] = (self.eval(x + e) - self.eval(x - e)) / (2 * FD_STEP)
        err = np.linalg.norm(g - fd, axis=1)
        allow = FD_TOL * (1.0 + np.linalg.norm(g, axis=1))
        if (err > allow).any():
            worst = int(np.argmax(err - allow))
            raise OracleValidationError(
                f"gradient check failed for {self.name or 'field'}: "
                f"|grad-fd|={err[worst]:.3g} at point {worst}")
        self._grad_checked = True

    def validate_lipschitz(self):
        if self.lipschitz is None:
            raise OracleValidationError("field has no Lipschitz constant")
        rng = derive_rng(0, "lip-check", self.name, self.dim)
        x = LIP_SCALE * rng.standard_normal((LIP_PAIRS, self.dim))
        y = LIP_SCALE * rng.standard_normal((LIP_PAIRS, self.dim))
        lhs = np.abs(self.eval(x) - self.eval(y))
        rhs = self.lipschitz * np.linalg.norm(x - y, axis=1)
        if (lhs > rhs + 1e-9 * (1.0 + rhs)).any():
            raise OracleValidationError(
                f"Lipschitz check failed for {self.name or 'field'}")
        self._lip_checked = True

    def require_gradient(self):
        if not self._grad_checked:
            self.validate_gradient()

    def require_lipschitz(self):
        if not self._lip_checked:
            self.validate_lipschitz()


def sample_std_gaussian(dim: int, count: int, seed: int) -> np.ndarray:
    """count i.i.d. standard normal dim-vectors, deterministic in seed."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = derive_rng(seed, "std-gaussian", dim)
    return rng.standard_normal((count, dim))


def poincare_gap(f: ScalarField, n_samples: int, seed: int):
    """(variance estimate, derivative-energy estimate) on one shared sample."""
    if f.dim != 1:
        raise ValueError("the derivative-energy check is one-dimensional")
    f.require_gradient()
    rng = derive_rng(seed, "poincare", f.name)
    x = rng.standard_normal((n_samples, 1))
    vals = np.asarray(f.eval(x), dtype=float)
    dsq = np.asarray(f.grad(x), dtype=float)[:, 0] ** 2
    lhs = McEstimate.from_samples((vals - vals.mean()) ** 2)
    rhs = McEstimate.from_samples(dsq)
    return lhs, rhs


def gaussian_lsi_gap(f: ScalarField, n_samples: int, seed: int):
    """(plug-in Ent(f^2) estimate, 2 E||grad f||^2 estimate)."""
    f.require_gradient()
    rng = derive_rng(seed, "lsi", f.name)
    x = rng.standard_normal((n_samples, f.dim))
    sq = np.asarray(f.eval(x), dtype=float) ** 2
    g = np.asarray(f.grad(x), dtype=float)
    rhs = McEstimate.from_samples(2.0 * np.sum(g * g, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(sq > 0, sq * np.log(np.where(sq > 0, sq, 1.0)), 0.0)
    if not np.isfinite(terms).all():
        raise IntegrabilityError("f^2 log f^2 overflowed on the sample")
    b_hat = float(np.mean(sq))
    if b_hat <= 0 or np.ptp(sq) == 0:
        return McEstimate(0.0, 0.0, n_samples), rhs
    # the plug-in entropy is nonnegative by Jensen; negatives are rounding
    mean = max(0.0, float(np.mean(terms)) - b_hat * np.log(b_hat))
    # delta method: d/dA = 1, d/dB = -(1 + log B)
    infl = terms - (1.0 + np.log(b_hat)) * sq
    stderr = float(np.std(infl, ddof=1)) / np.sqrt(n_samples)
    return McEstimate(mean, stderr, n_samples), rhs


def herbst_cgf_gap(f: ScalarField, lam: float, n_samples: int, seed: int):
    """(log-MGF estimate at lam around the empirical mean, lam^2 L^2 / 2)."""
    f.require_lipschitz()
    rng = derive_rng(seed, "herbst", f.name, format(lam, ".17g"))
    x = rng.standard_normal((n_samples, f.dim))
    vals = np.asarray(f.eval(x), dtype=float)
    centered = vals - vals.mean()
    with np.errstate(over="raise"):
        try:
            e = np.exp(lam * centered)
        except FloatingPointError as exc:
            raise IntegrabilityError("exp(lam f) overflowed on the sample") from exc
    m = McEstimate.from_samples(e)
    lhs = McEstimate(float(np.log(m.mean)), m.stderr / m.mean, n_samples)
    rhs = 0.5 * lam ** 2 * f.lipschitz ** 2
    return lhs, rhs


def lipschitz_tail_gap(f: ScalarField, t: float, n_samples: int, seed: int):
    """(two-sided tail frequency at t, 2 exp(-t^2 / 2 L^2)).

    Split-sample: the first half estimates the mean, the second half the tail
    event, so the plug-in center does not bias the indicator.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    f.require_lipschitz()
    rng = derive_rng(seed, "lip-tail", f.name, format(t, ".17g"))
    x = rng.standard_normal((n_samples, f.dim))
    half = n_samples // 2
    center = float(np.mean(np.asarray(f.eval(x[:half]), dtype=float)))
    dev = np.abs(np.asarray(f.eval(x[half:]), dtype=float) - center)
    tail = McEstimate.from_samples((dev >= t).astype(float))
    bound = 2.0 * np.exp(-t ** 2 / (2.0 * f.lipschitz ** 2))
    return tail, float(bound)


def finite_max_bound_check(m: int, scales, n_samples: int, seed: int,
                           budget: float = None):
    """(E max estimate over m independent centered normals with the given
    scales, budget sqrt(2 log m)).

    Each scale must be at most ``budget`` (default: max of scales), the
    sub-Gaussian parameter the bound is stated with.
    """
    if m < 1:
        raise ValueError("m must be positive")
    scales = np.asarray(scales, dtype=float)
    if scales.size != m:
        raise ValueError("need one scale per variable")
    if budget is None:
        budget = float(scales.max()) if m else 0.0
    if (scales > budget + 1e-12).any():
        raise ValueError("scales exceed the sub-Gaussian budget")
    rng = derive_rng(seed, "finite-max", m)
    block = rng.standard_normal((n_samples, m)) * scales
    emax = McEstimate.from_samples(block.max(axis=1))
    bound = 0.0 if m == 1 else float(budget * np.sqrt(2.0 * np.log(m)))
    return emax, bound


# -- compact bump smoothing ---------------------------------------------------

_GL_NODES = 201


def _bump_quadrature(n_nodes=_GL_NODES):
    # symmetric composite Gauss-Legendre on [-1, 0] and [0, 1]; the panel
    # boundary at 0 keeps kinked moments (|u|) superalgebraically accurate
    half = (n_nodes + 1) // 2
    x, w = np.polynomial.legendre.leggauss(half)
    u_pos = 0.5 * (x + 1.0)
    w_pos = 0.5 * w
    u = np.concatenate([-u_pos[::-1], u_pos])
    wts = np.concatenate([w_pos[::-1], w_pos])
    rho = np.exp(-1.0 / (1.0 - u ** 2))
    z = float(np.sum(wts * rho))
    return u, wts * rho / z


def bump_first_moment(n_nodes=_GL_NODES) -> float:
    """integral of |u| against the normalized bump kernel on (-1, 1)."""
    u, wn = _bump_quadrature(n_nodes)
    return float(np.sum(wn * np.abs(u)))


def mollify_1d(f, eps: float, grid):
    """(smoothed values on grid, sup |smoothed - f| on grid).

    The smoothed function is the convolution of f with the unit-mass bump
    kernel scaled to width eps, computed by Gauss-Legendre quadrature; for
    L-Lipschitz f the sup error is at most L eps times bump_first_moment().
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid needs at least two points")
    span = float(grid.max() - grid.min())
    if span < eps:
        raise ValueError("grid span too small relative to eps")
    u, wn = _bump_quadrature()
    shifted = grid[:, None] - eps * u[None, :]
    f_eps = np.asarray(f(shifted), dtype=float) @ wn
    base = np.asarray(f(grid), dtype=float)
    sup_err = float(np.max(np.abs(f_eps - base)))
    return f_eps, sup_err
