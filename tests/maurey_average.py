"""Maurey's averaging error and a normalizing dictionary constructor that
only the tests use on top of ``epkit.maurey``: the Monte Carlo mean squared
distance of a k-average of atoms to the hull point, beside its exact closed
form (E||Z||^2 - ||v||^2) / k."""

from dataclasses import dataclass

import numpy as np

from epkit import maurey
from epkit.gaussian import McEstimate
from epkit.rng import derive_rng


def normalized_from(X) -> maurey.ColumnDictionary:
    """Rescale any column longer than sqrt(n) down to exactly sqrt(n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    norms = np.linalg.norm(X, axis=0)
    scale = np.minimum(1.0, np.sqrt(X.shape[0]) / np.where(norms > 0, norms, 1.0))
    return maurey.ColumnDictionary(X * scale)


@dataclass
class AverageErrorResult:
    estimate: McEstimate
    closed_form: float     # (E||Z||^2 - ||v||^2) / k


def maurey_average_error(theta, R: float, dictionary: maurey.ColumnDictionary,
                         k: int, n_mc: int, seed: int) -> AverageErrorResult:
    """Monte Carlo E||k-average - v||^2 plus its exact closed form."""
    if k < 1:
        raise ValueError("k must be positive")
    dist = maurey.maurey_distribution(theta, R, dictionary)
    v = dist.expectation()
    atoms = dist.atoms
    rng = derive_rng(seed, "maurey-avg", k)
    errs = np.empty(n_mc)
    for trial in range(n_mc):
        idx = dist.sample_indices(rng, k)
        avg = atoms[:, idx].mean(axis=1)
        errs[trial] = np.sum((avg - v) ** 2)
    second = float(np.sum((atoms ** 2).sum(axis=0) * dist.probs))
    closed = (second - float(np.sum(v ** 2))) / k
    return AverageErrorResult(estimate=McEstimate.from_samples(errs),
                              closed_form=closed)
