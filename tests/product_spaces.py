"""Product spaces and joint pmfs that only the tests build on top of
``epkit.discrete``: the uniform bits, product measures on {0,1}^n with
weights drawn as discrete-check draws them, product-form joint pmfs, the
value table of a callable, and the former per-coordinate conditional
expectation, kept as the oracle of ``discrete.coordinate_averages``."""

import itertools

import numpy as np

from epkit import discrete


def uniform_bits(n):
    """Uniform product on {0,1}^n."""
    return discrete.FiniteProductSpace([[0.0, 1.0]] * n, [[0.5, 0.5]] * n)


def random_binary_space(rng, n):
    """A product measure on {0,1}^n with random coordinate weights."""
    return discrete.FiniteProductSpace([[0.0, 1.0]] * n,
                                       discrete._binary_weights(rng, n))


def product_pmf(weights):
    """The joint pmf of independent coordinates with the given weights."""
    return discrete.JointPmf(
        discrete._outer_product([np.asarray(w, float) for w in weights]))


def tabulate(sp, f) -> np.ndarray:
    """Value table of a callable on the full outcome tuples of sp, in its
    lexicographic outcome order."""
    outcomes = np.asarray(list(itertools.product(*sp.supports)), dtype=float)
    return np.asarray([float(f(x)) for x in outcomes], dtype=float)


def cond_exp_except_coord(i, values, sp):
    """The former discrete.cond_exp_except_coord, verbatim but for the module
    prefix: the average over coordinate i by np.tensordot, spread back along
    it."""
    if not 0 <= i < sp.n:
        raise ValueError("coordinate index out of range")
    grid = np.asarray(values, dtype=float).reshape(sp.sizes)
    reduced = np.tensordot(grid, sp.weights[i], axes=([i], [0]))
    return np.repeat(np.expand_dims(reduced, axis=i), sp.sizes[i], axis=i).reshape(-1)
