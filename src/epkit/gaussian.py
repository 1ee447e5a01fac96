"""Monte Carlo checks of the Gaussian functional-inequality chain: variance
versus derivative energy, entropy of f^2 versus gradient energy, the
cumulant-bound endpoint for Lipschitz functions, two-sided tails, finite
maxima, and 1-D smoothing by a compactly supported bump kernel.

Sampling uses numpy's PCG64 generator (ziggurat normals) through seeded
substreams from :mod:`epkit.rng`; identical (seed, parameters) reproduce every
estimate bit-for-bit on a fixed numpy version.

Vectorization contract: a field's ``eval`` maps an (m, dim) array to (m,) and
``grad`` maps (m, dim) to (m, dim).  Both must be pure functions of their
input arrays and row-wise: row i of the result depends only on row i of the
input, not on the other rows or on m.  The checks rely on this, because they
evaluate a field on the noise one block of rows at a time.

Each estimate draws its noise through ``rng.normal_blocks``, in blocks of at
most ``_BLOCK_BYTES`` that start at multiples of ``rng.ROW_ALIGN`` (1024)
rows from the first row of the evaluation they serve; the tail check makes
two evaluations, one per half, each aligned from its own first row.  Rows
are only row-wise in their values, not in their rounding: numpy's SIMD
loops handle the last few elements of an array, and OpenBLAS's gemv the
last rows of a product, by separate code.  Blocks at multiples of 1024 rows
keep every row at the same position within its group of 4, 8 or 16 as in
the whole draw, and the last block ends where the draw ends, so each row is
computed by the same code as before, as ``chaining.sample_maxima``'s blocks
do for its products.

Only the per-sample vectors (8 bytes per sample each: values, squared
derivatives, entropy terms, gradient energies, tail indicators, maxima) are
held whole.  ``McEstimate.from_samples`` reduces them with ``np.mean`` and
``np.std``, whose pairwise sums group the terms by the array's length, so a
blockwise reduction would change their bits.  Their centring, squaring,
``exp`` and ``log`` run in place.  The most a worker holds at once is 32
bytes per sample (``_SAMPLE_BYTES``), in ``gaussian_lsi_gap``: three vectors
and the temporary of ``np.std``.  ``SAMPLE_BUDGET``, gauss-check's largest
``--samples``, is 2^30 / 32 = 2^25, so a worker holds at most 1 GiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import derive_rng, normal_blocks

FD_POINTS, FD_STEP, FD_TOL = 100, 1e-5, 1e-4   # the finite-difference check
LIP_PAIRS, LIP_SCALE = 1000, 2.0   # the Lipschitz check: pairs, normals' scale
_BLOCK_BYTES = 1 << 17   # noise is drawn in blocks of at most 128 KiB
# the most bytes per sample that one estimate holds whole (see the module
# docstring); gauss-check's largest sample count keeps a worker within 1 GiB
_SAMPLE_BYTES = 32
SAMPLE_BUDGET = (1 << 30) // _SAMPLE_BYTES


class IntegrabilityError(RuntimeError):
    """Empirical overflow where an integrability hypothesis is required."""


class OracleValidationError(ValueError):
    """A declared gradient or Lipschitz constant failed its spot check."""


@dataclass
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int

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
    """A real field on R^dim with optional gradient and Lipschitz constant;
    its name keys the random streams of every check on it."""

    dim: int
    eval: callable
    name: str
    grad: callable = None
    lipschitz: float = None

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


def poincare_gap(f: ScalarField, n_samples: int, seed: int):
    """(variance estimate, derivative-energy estimate) on one shared sample."""
    if f.dim != 1:
        raise ValueError("the derivative-energy check is one-dimensional")
    f.validate_gradient()
    rng = derive_rng(seed, "poincare", f.name)
    vals, dsq = np.empty(n_samples), np.empty(n_samples)
    for rows, x in normal_blocks(rng, n_samples, 1, _BLOCK_BYTES):
        vals[rows] = f.eval(x)
        np.square(np.asarray(f.grad(x), dtype=float)[:, 0], out=dsq[rows])
    vals -= vals.mean()
    lhs = McEstimate.from_samples(np.square(vals, out=vals))
    rhs = McEstimate.from_samples(dsq)
    return lhs, rhs


def gaussian_lsi_gap(f: ScalarField, n_samples: int, seed: int):
    """(plug-in Ent(f^2) estimate, 2 E||grad f||^2 estimate)."""
    f.validate_gradient()
    rng = derive_rng(seed, "lsi", f.name)
    sq, terms, energy = np.empty(n_samples), np.empty(n_samples), np.empty(n_samples)
    for rows, x in normal_blocks(rng, n_samples, f.dim, _BLOCK_BYTES):
        s = np.square(np.asarray(f.eval(x), dtype=float), out=sq[rows])
        g = np.asarray(f.grad(x), dtype=float)
        np.multiply(2.0, np.sum(g * g, axis=1), out=energy[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            terms[rows] = np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0)
    rhs = McEstimate.from_samples(energy)
    if not np.isfinite(terms).all():
        raise IntegrabilityError("f^2 log f^2 overflowed on the sample")
    b_hat = float(np.mean(sq))
    if b_hat <= 0 or np.ptp(sq) == 0:
        return McEstimate(0.0, 0.0, n_samples), rhs
    # the plug-in entropy is nonnegative by Jensen; negatives are rounding
    mean = max(0.0, float(np.mean(terms)) - b_hat * np.log(b_hat))
    # delta method: d/dA = 1, d/dB = -(1 + log B); the influence values
    # overwrite the terms
    sq *= 1.0 + np.log(b_hat)
    terms -= sq
    stderr = float(np.std(terms, ddof=1)) / np.sqrt(n_samples)
    return McEstimate(mean, stderr, n_samples), rhs


def herbst_cgf_gap(f: ScalarField, lam: float, n_samples: int, seed: int):
    """(log-MGF estimate at lam around the empirical mean, lam^2 L^2 / 2)."""
    f.validate_lipschitz()
    rng = derive_rng(seed, "herbst", f.name, format(lam, ".17g"))
    vals = np.empty(n_samples)
    for rows, x in normal_blocks(rng, n_samples, f.dim, _BLOCK_BYTES):
        vals[rows] = f.eval(x)
    vals -= vals.mean()
    vals *= lam
    with np.errstate(over="raise"):
        try:
            np.exp(vals, out=vals)
        except FloatingPointError as exc:
            raise IntegrabilityError("exp(lam f) overflowed on the sample") from exc
    m = McEstimate.from_samples(vals)
    lhs = McEstimate(float(np.log(m.mean)), m.stderr / m.mean, n_samples)
    rhs = 0.5 * lam ** 2 * f.lipschitz ** 2
    return lhs, rhs


def lipschitz_tail_gap(f: ScalarField, t: float, n_samples: int, seed: int):
    """(two-sided tail frequency at t, 2 exp(-t^2 / 2 L^2)).

    Split-sample: the first half estimates the mean, the second half the tail
    event, so the plug-in center does not bias the indicator.  The halves are
    consecutive rows of one stream, each evaluated as a draw of its own.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    f.validate_lipschitz()
    rng = derive_rng(seed, "lip-tail", f.name, format(t, ".17g"))
    half = n_samples // 2
    vals = np.empty(half)
    for rows, x in normal_blocks(rng, half, f.dim, _BLOCK_BYTES):
        vals[rows] = f.eval(x)
    center = float(np.mean(vals))
    hits = np.empty(n_samples - half)
    for rows, x in normal_blocks(rng, n_samples - half, f.dim, _BLOCK_BYTES):
        hits[rows] = np.abs(np.asarray(f.eval(x), dtype=float) - center) >= t
    tail = McEstimate.from_samples(hits)
    bound = 2.0 * np.exp(-t ** 2 / (2.0 * f.lipschitz ** 2))
    return tail, float(bound)


def finite_max_bound_check(m: int, scales, n_samples: int, seed: int):
    """(E max estimate over m independent centered normals with the given
    scales, max(scales) sqrt(2 log m)): the bound is stated with the largest
    scale as the sub-Gaussian parameter."""
    if m < 1:
        raise ValueError("m must be positive")
    scales = np.asarray(scales, dtype=float)
    if scales.size != m:
        raise ValueError("need one scale per variable")
    rng = derive_rng(seed, "finite-max", m)
    maxima = np.empty(n_samples)
    for rows, block in normal_blocks(rng, n_samples, m, _BLOCK_BYTES):
        block *= scales
        block.max(axis=1, out=maxima[rows])
    emax = McEstimate.from_samples(maxima)
    bound = 0.0 if m == 1 else float(scales.max() * np.sqrt(2.0 * np.log(m)))
    return emax, bound


# -- compact bump smoothing ---------------------------------------------------

_GL_NODES = 201


def _bump_quadrature(n_nodes):
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


def bump_first_moment() -> float:
    """integral of |u| against the normalized bump kernel on (-1, 1)."""
    u, wn = _bump_quadrature(_GL_NODES)
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
    u, wn = _bump_quadrature(_GL_NODES)
    shifted = grid[:, None] - eps * u[None, :]
    f_eps = np.asarray(f(shifted), dtype=float) @ wn
    base = np.asarray(f(grid), dtype=float)
    sup_err = float(np.max(np.abs(f_eps - base)))
    return f_eps, sup_err
