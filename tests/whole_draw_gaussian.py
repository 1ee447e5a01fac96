"""The Gaussian gap functions as they were before their noise was drawn in
row blocks: each draws its whole (n_samples, dim) panel at once and
evaluates the field on it.  The test oracle for the blocked functions of
``epkit.gaussian``, whose estimates must match these bit for bit."""

import numpy as np

from epkit.gaussian import IntegrabilityError, McEstimate, ScalarField
from epkit.rng import derive_rng


def poincare_gap(f: ScalarField, n_samples: int, seed: int):
    """(variance estimate, derivative-energy estimate) on one shared sample."""
    if f.dim != 1:
        raise ValueError("the derivative-energy check is one-dimensional")
    f.validate_gradient()
    rng = derive_rng(seed, "poincare", f.name)
    x = rng.standard_normal((n_samples, 1))
    vals = np.asarray(f.eval(x), dtype=float)
    dsq = np.asarray(f.grad(x), dtype=float)[:, 0] ** 2
    lhs = McEstimate.from_samples((vals - vals.mean()) ** 2)
    rhs = McEstimate.from_samples(dsq)
    return lhs, rhs


def gaussian_lsi_gap(f: ScalarField, n_samples: int, seed: int):
    """(plug-in Ent(f^2) estimate, 2 E||grad f||^2 estimate)."""
    f.validate_gradient()
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
    f.validate_lipschitz()
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
    f.validate_lipschitz()
    rng = derive_rng(seed, "lip-tail", f.name, format(t, ".17g"))
    x = rng.standard_normal((n_samples, f.dim))
    half = n_samples // 2
    center = float(np.mean(np.asarray(f.eval(x[:half]), dtype=float)))
    dev = np.abs(np.asarray(f.eval(x[half:]), dtype=float) - center)
    tail = McEstimate.from_samples((dev >= t).astype(float))
    bound = 2.0 * np.exp(-t ** 2 / (2.0 * f.lipschitz ** 2))
    return tail, float(bound)
