"""Property-based tests for the invariants the covering counts, the function
classes, the chaining and discrete checks and the sparsification rely on:
counts read off the farthest-point traversal, their monotonicity in the
scale, the packing sandwich around the exact covering number, the linear
class's closed-form inner supremum, the exact telescoping of chained
increments, the Efron-Stein and tensorization inequalities with the duality
equality case, the product-space kernel against brute-force enumeration, and
Maurey's unbiasedness and 1/k error law."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epkit import chaining, discrete, maurey, metric
from epkit import regression as rg
from epkit.cli import EXACT_TOL
from epkit.rng import gaussian_design, l1_ball_point

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


@PROPERTY
@given(points=clouds(12), depth=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_telescoping_residual_is_exact(points, depth, seed):
    s = chaining.IndexSet(points=points)
    nets = chaining.build_dyadic_nets(s, K=depth)
    proc = chaining.CanonicalProcess(sigma=1.0)
    rng = np.random.default_rng(seed)
    for u in nets.levels[depth].net:
        w = rng.standard_normal(s.dim)
        assert chaining.telescoping_residual(int(u), nets, proc, w) <= EXACT_TOL


@PROPERTY
@given(data=st.data(), sizes=st.lists(st.integers(2, 3), min_size=1, max_size=4))
def test_discrete_chain_and_duality_equality(data, sizes):
    weights = [w / w.sum() for w in
               (data.draw(hnp.arrays(float, k, elements=st.floats(0.01, 1.0)))
                for k in sizes)]
    sp = discrete.FiniteProductSpace([np.arange(k, dtype=float) for k in sizes],
                                     weights)
    f = data.draw(hnp.arrays(float, sp.n_outcomes, elements=st.floats(-1.0, 1.0)))
    variance, conditional = discrete.efron_stein_gap(f, sp)
    assert variance <= conditional + EXACT_TOL
    ent, summed = discrete.tensorization_gap(np.abs(f), sp)
    assert ent <= summed + EXACT_TOL
    y = np.abs(f) + 0.1
    ent, dual = discrete.entropy_duality_check(y, y, sp)
    assert abs(ent - dual) <= EXACT_TOL


@PROPERTY
@given(data=st.data(), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_product_space_matches_brute_force_enumeration(data, sizes):
    weights = [w / w.sum() for w in
               (data.draw(hnp.arrays(float, k, elements=st.floats(0.01, 1.0)))
                for k in sizes)]
    sp = discrete.FiniteProductSpace([np.arange(k, dtype=float) for k in sizes],
                                     weights)
    y = np.abs(data.draw(hnp.arrays(float, sp.n_outcomes,
                                    elements=st.floats(-1.0, 1.0))))
    cells = list(itertools.product(*map(range, sizes)))   # coordinate 0 slowest

    def prob(cell):
        return math.prod(w[j] for w, j in zip(weights, cell))

    def value(cell):
        return y[np.ravel_multi_index(cell, sizes)]

    def along(i, cell):   # the cells that differ from cell in coordinate i only
        return [cell[:i] + (a,) + cell[i + 1:] for a in range(sizes[i])]

    # same products and one fsum: equal to the last bit
    assert sp.probs.tolist() == [prob(c) for c in cells]
    assert sp.expectation(y) == math.fsum(value(c) * prob(c) for c in cells)
    rhs = 0.0
    for i in range(len(sizes)):
        cond = [math.fsum(weights[i][c[i]] * value(c) for c in along(i, cell))
                for cell in cells]
        np.testing.assert_allclose(discrete.cond_exp_except_coord(i, y, sp), cond,
                                   rtol=1e-12, atol=1e-15)
        for cell, m in zip(cells, cond):
            plogp = math.fsum(weights[i][c[i]] * value(c) * math.log(value(c))
                              for c in along(i, cell) if value(c) > 0)
            rhs += prob(cell) * (plogp - m * math.log(m) if m > 0 else 0.0)
    assert discrete.tensorization_gap(y, sp)[1] == pytest.approx(rhs, rel=1e-9,
                                                                 abs=1e-12)


maurey_inputs = dict(n=st.integers(1, 8), d=st.integers(1, 6), R=st.floats(0.1, 5.0),
                     seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(**maurey_inputs)
def test_maurey_atoms_average_to_the_hull_point(n, d, R, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    theta = l1_ball_point(rng, d, R)
    dist = maurey.maurey_distribution(theta, R, maurey.ColumnDictionary(X))
    np.testing.assert_allclose(dist.expectation(), X @ theta / np.sqrt(n),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(k=st.integers(1, 20), **maurey_inputs)
def test_maurey_average_error_falls_as_one_over_k(k, n, d, R, seed):
    rng = np.random.default_rng(seed)
    dic = maurey.ColumnDictionary(gaussian_design(rng, n, d), normalized=True)
    theta = l1_ball_point(rng, d, R)
    v = dic.X @ theta / np.sqrt(n)
    res = maurey.maurey_average_error(theta, R, dic, k, n_mc=2, seed=seed)
    expected = (maurey.maurey_second_moment(theta, R, dic) - v @ v) / k
    assert res.closed_form == pytest.approx(expected, rel=1e-9, abs=1e-12)
