"""Property-based tests for the invariants the covering counts and the
function classes rely on: counts read off the farthest-point traversal,
their monotonicity in the scale, the packing sandwich around the exact
covering number, and the linear class's closed-form inner supremum."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epkit import metric
from epkit import regression as rg

PROPERTY = settings(max_examples=60, deadline=None)


def clouds(max_points):
    coords = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    return st.tuples(st.integers(1, max_points), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=coords))


scales = st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=6)


@PROPERTY
@given(points=clouds(30), eps=scales)
def test_counts_are_farthest_packing_sizes_and_monotone(points, eps):
    s = metric.FiniteMetricSet.from_points(points)
    counts = metric.covering_counts(s, eps)
    assert list(counts) == [len(metric.maximal_packing(e, s, order="farthest"))
                            for e in eps]
    by_scale = counts[np.argsort(eps, kind="stable")]
    assert (np.diff(by_scale) <= 0).all()


@PROPERTY
@given(points=clouds(12), eps=st.floats(1e-3, 3.0))
def test_packing_sandwich_brackets_exact_covering_number(points, eps):
    s = metric.FiniteMetricSet.from_points(points)
    bounds = metric.covering_number_bounds(eps, s)
    assert bounds.lower <= metric.exact_covering_number(eps, s) <= bounds.upper


@PROPERTY
@given(n=st.integers(1, 8), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       delta=st.floats(1e-3, 10.0), zero=st.booleans())
def test_linear_inner_sup_is_projected_noise_norm(n, d, seed, delta, zero):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d)) if zero else rng.standard_normal((n, d))
    w = rng.standard_normal((4, n))
    sups = rg.LinearClass().inner_sups(X, w, delta)
    projected = X @ np.linalg.lstsq(X, w.T, rcond=None)[0]   # P w, column-wise
    expected = delta * np.linalg.norm(projected, axis=0) / np.sqrt(n)
    np.testing.assert_allclose(sups, expected, rtol=1e-9, atol=1e-12)
    # no feasible theta on the delta-sphere beats it
    values = X @ rng.standard_normal((d, 16))
    norms = np.linalg.norm(values, axis=0)
    feasible = values[:, norms > 0] * (delta * np.sqrt(n) / norms[norms > 0])
    assert (w @ feasible / n <= sups[:, None] * (1 + 1e-9) + 1e-12).all()
