"""Product spaces and joint pmfs that only the tests build on top of
``epkit.discrete``: the uniform bits, product measures on {0,1}^n with
weights drawn as discrete-check draws them, and product-form joint pmfs."""

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
