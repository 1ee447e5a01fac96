"""Property-based tests for the invariants the covering counts, the function
classes, the chaining and discrete checks and the sparsification rely on:
counts read off the farthest-point traversal, their monotonicity in the
scale, the packing sandwich around the exact covering number, the linear
class's closed-form inner supremum, the exact telescoping of chained
increments, the stored projection maps against per-point chains, the
blocked distance reductions against dense ones, the near-hull Monte Carlo
maxima against the whole product, the Efron-Stein and tensorization
inequalities with the duality equality case, the product-space kernel
against brute-force enumeration, the coordinate averages against
np.tensordot's bits, and Maurey's unbiasedness and 1/k error
law."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from epkit import chaining, discrete, maurey, metric
from epkit import regression as rg
from epkit.cli import EXACT_TOL
from epkit.rng import ROW_ALIGN, gaussian_design, l1_ball_point
from exact_cover import exact_covering_number
from maurey_average import maurey_average_error, normalized_from
from product_spaces import cond_exp_except_coord
from whole_panel_chaining import RowStream

PROPERTY = settings(max_examples=60, deadline=None)


def copy_rows(points, pairs):
    points = points.copy()
    for i, j in pairs:
        points[i] = points[j]
    return points


def clouds(max_points, max_dim=3):
    """Clouds in [-1, 1]^dim, some of whose rows repeat others."""
    coords = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    arrays = st.tuples(st.integers(1, max_points), st.integers(1, max_dim)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=coords))
    return arrays.flatmap(lambda pts: st.lists(
        st.tuples(st.integers(0, len(pts) - 1), st.integers(0, len(pts) - 1)),
        max_size=len(pts) // 2).map(lambda pairs: copy_rows(pts, pairs)))


scales = st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=6)


@PROPERTY
@given(points=clouds(30), eps=scales)
def test_counts_are_farthest_packing_sizes_and_monotone(points, eps):
    s = metric.FiniteMetricSet.from_points(points)
    counts = metric.covering_counts(s, eps)
    for e, count in zip(eps, counts):
        # a maximal packing: more than e apart and an e-net, of `count` points
        pack = metric.maximal_packing(e, s)
        assert len(pack) == count
        assert (s.rows(pack)[:, pack][np.triu_indices(count, 1)] > e).all()
        assert metric.is_epsilon_net(pack, e, s)
    by_scale = counts[np.argsort(eps, kind="stable")]
    assert (np.diff(by_scale) <= 0).all()


@PROPERTY
@given(points=clouds(12), eps=st.floats(1e-3, 3.0))
def test_packing_sandwich_brackets_exact_covering_number(points, eps):
    s = metric.FiniteMetricSet.from_points(points)
    bounds = metric.covering_number_bounds(eps, s)
    assert bounds.lower <= exact_covering_number(eps, s) <= bounds.upper


@PROPERTY
@given(n=st.integers(1, 8), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       delta=st.floats(1e-3, 10.0), zero=st.booleans())
def test_linear_inner_sup_is_projected_noise_norm(n, d, seed, delta, zero):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d)) if zero else rng.standard_normal((n, d))
    w = rng.standard_normal((4, n))
    sups = rg.LinearClass().inner_sups(X, w, delta, map)
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
    s = metric.FiniteMetricSet.from_points(points)
    nets = chaining.build_dyadic_nets(s, K=depth)
    proc = chaining.CanonicalProcess(sigma=1.0)
    rng = np.random.default_rng(seed)
    for u in nets.levels[depth].net:
        w = rng.standard_normal(s.points.shape[1])
        assert chaining.telescoping_residual(int(u), nets, proc, w) <= EXACT_TOL


def grid_clouds(max_points, side, max_dim=3):
    """Clouds with coordinates i / side, |i| <= side: a small side gives
    equidistant ties and duplicated points, a large one generic clouds whose
    default depth stays below chaining.MAX_DEPTH."""
    coords = st.integers(-side, side).map(lambda i: i / side)
    return st.tuples(st.integers(1, max_points), st.integers(1, max_dim)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=coords))


def reference_chain(u, nets):
    """pi_0(u)..pi_K(u), each level's nearest member found by its own scan."""
    ms = nets.metric_set
    chain = [u]
    for lv in reversed(nets.levels[:-1]):
        row = ms.rows(chain[-1])[lv.net]
        chain.append(int(lv.net[row == row.min()].min()))
    return chain[::-1]


@PROPERTY
@given(points=st.one_of(grid_clouds(40, 2), grid_clouds(40, 2 ** 10)),
       depth=st.one_of(st.none(), st.integers(0, 6)), budget=st.integers(1, 400))
def test_projection_maps_match_per_point_chains(points, depth, budget):
    with mock.patch.object(metric, "BLOCK_BYTES", budget):
        s = metric.FiniteMetricSet.from_points(points)
        nets = chaining.build_dyadic_nets(s, K=depth)
    dmat = cdist(s.points, s.points)
    finest = [int(u) for u in nets.levels[nets.K].net]
    chains = [reference_chain(u, nets) for u in finest]
    assert [chaining.recursive_projection(u, nets) for u in finest] == chains
    steps = [lv.eps - dmat[a, b] for chain in chains
             for lv, a, b in zip(nets.levels, chain, chain[1:])]
    assert (float(chaining.projection_step_margins(nets).min()).hex()
            == float(min(steps, default=0.0)).hex())


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def wide_clouds():
    """200 to 600 points in 1 to 5 dimensions, where the traversal's windows
    prune in 2 and 3: uniform, or on an integer lattice (exact ties at the
    window edges and in the argmax), with up to 100 rows repeating others."""
    def build(seed, n, dim, side, repeats):
        rng = np.random.default_rng(seed)
        points = (rng.uniform(-1, 1, size=(n, dim)) if side is None
                  else rng.integers(-side, side + 1, size=(n, dim)).astype(float))
        points[rng.integers(0, n, repeats)] = points[rng.integers(0, n, repeats)]
        return points
    return st.builds(build, st.integers(0, 2 ** 32 - 1), st.integers(200, 600),
                     st.integers(1, 5), st.one_of(st.none(), st.integers(1, 12)),
                     st.integers(0, 100))


@PROPERTY
@given(points=st.one_of(grid_clouds(40, 1, 7), grid_clouds(40, 2, 7),
                        clouds(40, 7), wide_clouds()),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]),
       depth=st.integers(0, 8), budget=st.integers(1, 400), data=st.data())
def test_point_cloud_form_matches_its_distance_matrix(points, scale, depth,
                                                      budget, data):
    points = points * scale
    # cdist's own bits, read at 1e-300 and 1e300 through the exact
    # power-of-two rescaling
    exp = metric._scale_exponent(points)
    d = np.ldexp(cdist(np.ldexp(points, -exp), np.ldexp(points, -exp)), exp)
    n = len(d)
    with mock.patch.object(metric, "BLOCK_BYTES", budget):
        s = metric.FiniteMetricSet.from_points(points)
        ref = metric.FiniteMetricSet(d)
        # rows on demand are the matrix rows, one by one and in blocks, and
        # symmetric with a zero diagonal by construction; the matrix reads
        # every row whole, the cloud only its windows
        rows = np.array([s.rows(i) for i in range(n)])
        assert hexes(rows) == hexes(d) and (rows == rows.T).all()
        assert (np.diag(rows) == 0.0).all()
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        assert hexes(s.rows(np.asarray(idx))) == hexes(d[idx])
        order, radii = s.farthest_point_order()
        assert sorted(order) == list(range(n))   # a permutation
        assert list(order) == list(ref.farthest_point_order()[0])
        assert hexes(radii) == hexes(ref.farthest_point_order()[1])
        pos = d[np.triu_indices(n, 1)]
        min_pos = float(pos[pos > 0].min() if (pos > 0).any() else 0.0)
        for t in (s, ref):
            assert t.diameter.hex() == float(d.max()).hex()
            assert t.min_positive_distance().hex() == min_pos.hex()
        eps = (d.max() or 1.0) * 2.0 ** -np.arange(1, 12)
        assert list(metric.covering_counts(s, eps)) == list(
            metric.covering_counts(ref, eps))
        net = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        radius = d[net].min(axis=0).max()   # the covering radius of net
        for t in (s, ref):
            if radius > 0:
                assert metric.is_epsilon_net(net, radius, t)
                assert not metric.is_epsilon_net(
                    net, np.nextafter(radius, 0.0), t)
        nets = chaining.build_dyadic_nets(
            metric.FiniteMetricSet.from_points(points), K=depth)
        ref_nets = chaining.build_dyadic_nets(ref, K=depth)
    assert [list(lv.net) for lv in nets.levels] == [
        list(lv.net) for lv in ref_nets.levels]
    assert all((a == b).all() for a, b in zip(nets.projections,
                                              ref_nets.projections))
    steps = [lv.eps - d[pi[fine.net], fine.net] for lv, fine, pi
             in zip(nets.levels, nets.levels[1:], nets.projections)]
    expected = np.concatenate(steps).min() if steps else 0.0
    assert (float(chaining.projection_step_margins(nets).min()).hex()
            == float(expected).hex())


def hull_cloud(kind, m, dim, rng):
    """m points of one kind; collinear clouds are 2-D and coplanar ones 3-D."""
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=(m, dim))
    if kind == "gaussian":
        return rng.standard_normal((m, dim))
    if kind == "lattice":
        return rng.integers(-3, 4, size=(m, dim)).astype(float)
    if kind == "duplicated":
        base = rng.uniform(-1.0, 1.0, size=(max(m // 3, 1), dim))
        return base[rng.integers(0, len(base), m)]
    u, v = rng.uniform(-1.0, 1.0, size=(2, m))
    if kind == "collinear":
        return np.c_[u, 0.5 * u + 0.25]
    return np.c_[u, v, 0.3 * u - 0.7 * v]   # coplanar


def blockwise_maxima(scaled, noise, rows):
    """Every row multiplied one noise block of sample_maxima at a time, as
    before the hull was taken: in 4 and 5 dimensions the blocks round a few
    entries differently from one whole product."""
    picked = slice(None) if rows is None else rows
    return np.concatenate([
        (scaled @ noise[b].T)[picked].max(axis=0)
        for b in metric.blocks(len(noise), 8 * max(len(scaled), scaled.shape[1]),
                               align=ROW_ALIGN)])


@PROPERTY
@given(shape=st.one_of(
           st.tuples(st.sampled_from(["uniform", "gaussian", "lattice", "duplicated"]),
                     st.integers(1, 5)),
           st.just(("collinear", 2)), st.just(("coplanar", 3))),
       m=st.sampled_from([1, 2, 4, 5, 33, 65, 300]),
       scale=st.sampled_from([1e-150, 1.0, 1e150]),
       # 1000 and 2048 rows take the near-hull path at the default budget;
       # 3076 is a block of 4 modulo 8 rows there, and the last of 1024-row
       # blocks
       n=st.sampled_from([1, 2, 1000, 1025, 2048, 3076, 4097]),
       subset=st.sampled_from(["all", "one", "two", "many"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_maxima_match_the_whole_product(shape, m, scale, n, subset, seed):
    (kind, dim), rng = shape, np.random.default_rng(seed)
    points = hull_cloud(kind, m, dim, rng) * scale
    scaled = 1.3 * (points - points[0])
    noise = rng.standard_normal((n, dim))
    size = {"all": m, "one": 1, "two": min(2, m), "many": max(m // 2, 1)}[subset]
    rows = None if subset == "all" else rng.permutation(m)[:size]
    whole = (scaled @ noise.T)[slice(None) if rows is None else rows].max(axis=0)
    for budget in (metric.BLOCK_BYTES, 1):
        with mock.patch.object(metric, "BLOCK_BYTES", budget):
            got = hexes(chaining.sample_maxima(scaled, RowStream(noise), n, rows))
            assert got == hexes(blockwise_maxima(scaled, noise, rows))
        # the blocks give the whole product's maxima in up to 3 dimensions
        # when the last block holds 0 to 3 rows modulo 8; otherwise OpenBLAS
        # rounds some trailing entries by the block's shape
        if dim <= 3 and n % 8 < 4:
            assert got == hexes(whole)


@PROPERTY
@given(points=clouds(20), budget=st.integers(1, 400), data=st.data())
def test_blocked_distance_reductions_match_dense(points, budget, data):
    d = cdist(points, points)
    n = len(d)
    net = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    nearest = d[np.ix_(net, range(n))].min(axis=0)
    radius = nearest.max()  # the smallest scale at which net covers
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    skew = d.copy()
    skew[i, j] += data.draw(st.floats(0.0, 1e-8))
    vals = d[np.triu_indices(n, 1)]
    pos = vals[vals > 0]
    tol = 1e-9 * (skew.max() + min(skew.max(), 1.0))
    with mock.patch.object(metric, "BLOCK_BYTES", budget):
        s = metric.FiniteMetricSet(d)
        assert s.min_positive_distance() == (pos.min() if pos.size else 0.0)
        for eps in (radius, np.nextafter(radius, 0.0), 1e-3):
            if eps > 0:
                assert metric.is_epsilon_net(net, eps, s) == (nearest <= eps).all()
        try:
            metric.FiniteMetricSet(skew)
            asymmetric = False
        except metric.MetricValidationError as err:
            asymmetric = "asymmetric" in str(err)
    assert asymmetric == bool(np.abs(skew - skew.T).max() > tol)


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
        np.testing.assert_allclose(discrete.coordinate_averages(y, sp)[i], cond,
                                   rtol=1e-12, atol=1e-15)
        for cell, m in zip(cells, cond):
            plogp = math.fsum(weights[i][c[i]] * value(c) * math.log(value(c))
                              for c in along(i, cell) if value(c) > 0)
            rhs += prob(cell) * (plogp - m * math.log(m) if m > 0 else 0.0)
    assert discrete.tensorization_gap(y, sp)[1] == pytest.approx(rhs, rel=1e-9,
                                                                 abs=1e-12)


@PROPERTY
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1), scale=st.integers(-300, 300),
       spread=st.floats(0.0, 1.0), zeros=st.floats(0.0, 1.0),
       subnormals=st.floats(0.0, 1.0))
def test_coordinate_averages_are_tensordots_bits(sizes, seed, scale, spread, zeros,
                                                 subnormals):
    # 5^5 = 3125 outcomes at most, within OUTCOME_BUDGET; one scale for the
    # table, another for each entry of a random share, then a share of
    # subnormals and a share of zeros
    rng = np.random.default_rng(seed)
    weights = [w / w.sum() for w in (rng.uniform(0.01, 1.0, size=k) for k in sizes)]
    sp = discrete.FiniteProductSpace([np.arange(k, dtype=float) for k in sizes],
                                     weights)
    n = sp.n_outcomes
    y = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** scale
    own = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-300, 301, size=n)
    tiny = rng.uniform(-1.0, 1.0, size=n) * 2.0 ** rng.integers(-1074, -1021, size=n)
    y = np.where(rng.random(n) < spread, own, y)
    y = np.where(rng.random(n) < subnormals, tiny, y)
    y[rng.random(n) < zeros] = 0.0
    averages = discrete.coordinate_averages(y, sp)
    for i in range(sp.n):
        assert [v.hex() for v in averages[i].tolist()] == \
            [v.hex() for v in cond_exp_except_coord(i, y, sp).tolist()]


maurey_inputs = dict(n=st.integers(1, 8), d=st.integers(1, 6), R=st.floats(0.1, 5.0),
                     seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(**maurey_inputs)
def test_maurey_atoms_average_to_the_hull_point(n, d, R, seed):
    rng = np.random.default_rng(seed)
    dic = normalized_from(rng.standard_normal((n, d)))
    theta = l1_ball_point(rng, d, R)
    dist = maurey.maurey_distribution(theta, R, dic)
    np.testing.assert_allclose(dist.expectation(), dic.X @ theta / np.sqrt(n),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(k=st.integers(1, 20), **maurey_inputs)
def test_maurey_average_error_falls_as_one_over_k(k, n, d, R, seed):
    rng = np.random.default_rng(seed)
    dic = maurey.ColumnDictionary(gaussian_design(rng, n, d))
    theta = l1_ball_point(rng, d, R)
    v = dic.X @ theta / np.sqrt(n)
    res = maurey_average_error(theta, R, dic, k, n_mc=2, seed=seed)
    expected = (maurey.maurey_second_moment(theta, R, dic) - v @ v) / k
    assert res.closed_form == pytest.approx(expected, rel=1e-9, abs=1e-12)
