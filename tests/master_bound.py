"""The high-probability error-bound experiment for the linear class, which
only the tests run on top of ``epkit.regression``: over independent noise
draws, the frequency of a squared error of at least 16 t delta_star against
its exponential budget exp(-n t delta_star / (2 sigma^2)); the responses of a
model to a noise draw; and a closed-form bracket for the critical radius the
experiment is run at."""

import numpy as np

from epkit import regression as rg
from epkit.gaussian import McEstimate
from epkit.rng import derive_rng


def response(model: rg.RegressionModel, w) -> np.ndarray:
    """y_i = <theta_star, x_i> + sigma w_i, exactly."""
    w = np.asarray(w, dtype=float)
    return model.x @ model.theta_star + model.sigma * w


def master_bound_experiment(model: rg.RegressionModel, t: float, trials: int,
                            seed: int, delta_star: float):
    """(frequency of squared error >= 16 t delta_star, exp(-n t delta_star /
    (2 sigma^2))) over the "mbe-trial" noise substreams, each solved by
    least squares."""
    if t < delta_star * (1 - 1e-12):
        raise ValueError("t must be at least the critical radius")
    X = model.x
    hits = np.empty(trials)
    for trial in range(trials):
        w = derive_rng(seed, "mbe-trial", trial).standard_normal(model.n)
        y = response(model, w)
        res = rg.solve_ls_linear(X, y)
        err_sq = rg.empirical_norm(X @ (res.theta - model.theta_star)) ** 2
        hits[trial] = 1.0 if err_sq >= 16.0 * t * delta_star else 0.0
    freq = McEstimate.from_samples(hits)
    bound = float(np.exp(-model.n * t * delta_star / (2.0 * model.sigma ** 2)))
    return freq, bound


def auto_bracket(model: rg.RegressionModel) -> tuple:
    """A bracket [lo, hi] for the critical radius of either class, in closed
    form: hi = 4 sigma sqrt(rank / n) + sigma, lo = 1e-6 hi."""
    n = model.n
    r = max(rg.design_rank(model.x), 1)
    hi = 4.0 * model.sigma * np.sqrt(r / n) + model.sigma
    lo = hi * 1e-6
    return lo, hi
