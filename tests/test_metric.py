"""Covering/packing calculus tests.

Oracle checklist:
- exact_covering_number (branch and bound, tests/exact_cover.py) validates
  the greedy sandwich;
- closed-form entropy integral of small sets validates the quadrature;
- the Euclidean ball bound (tests/exact_cover.py) checked against exact
  covers of sampled ball subsets.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

from epkit import metric
from epkit.rng import derive_rng
from exact_cover import (SizeLimitError, euclidean_ball_covering_bound,
                         exact_covering_number)


def entropy(eps, s):
    return float(metric.entropies(metric.covering_counts(s, eps)))


def line_set(*xs):
    return metric.FiniteMetricSet.from_points(np.asarray(xs, dtype=float)[:, None])


@pytest.fixture(scope="module")
def grid101():
    return metric.FiniteMetricSet.from_points(np.linspace(0, 1, 101)[:, None])


class TestFiniteMetricSet:
    def test_validation_accepts_euclidean(self, grid101):
        assert grid101.n == 101
        assert grid101.diameter == pytest.approx(1.0)

    def test_pseudo_metric_allows_duplicates(self):
        s = line_set(0.0, 0.0, 1.0)
        assert s.rows(0)[1] == 0.0
        assert s.min_positive_distance() == pytest.approx(1.0)

    def test_traversal_orders_coincident_points_last(self):
        # once every point is at distance 0 from the selection, the rest
        # follow in index order and no row is read again
        s = metric.FiniteMetricSet.from_points(
            [[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]])
        order, radii = s.farthest_point_order()
        assert order.tolist() == [0, 2, 4, 1, 3]
        assert radii.tolist() == [np.inf, 1.0, 1.0, 0.0, 0.0]
        assert s.min_positive_distance() == 1.0

    def test_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(metric.MetricValidationError):
            metric.FiniteMetricSet(bad)

    def test_rejects_asymmetry_in_a_later_block(self, monkeypatch):
        pts = derive_rng(1, "blocks").uniform(0, 1, size=(300, 2))
        d = cdist(pts, pts)
        d[298, 299] += 1e-3  # rows 298 and 299 share the last block
        monkeypatch.setattr(metric, "BLOCK_BYTES", 8 * 300 * 16)
        assert len(metric.blocks(300, 8 * 300)) > 1
        with pytest.raises(metric.MetricValidationError, match="asymmetric"):
            metric.FiniteMetricSet(d)

    def test_blocks_align_and_absorb_the_remainder(self, monkeypatch):
        monkeypatch.setattr(metric, "BLOCK_BYTES", 1)
        assert metric.blocks(4097, 8, align=1024) == [
            slice(0, 1024), slice(1024, 2048), slice(2048, 3072), slice(3072, 4097)]
        assert metric.blocks(1000, 8, align=1024) == [slice(0, 1000)]
        assert metric.blocks(0, 0) == [slice(0, 0)]
        monkeypatch.setattr(metric, "BLOCK_BYTES", 32 * 2 ** 20)
        assert metric.blocks(100_000, 8 * 1000, align=1024)[1] == slice(2048, 4096)

    def test_rejects_triangle_violation(self):
        bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(metric.MetricValidationError):
            metric.FiniteMetricSet(bad)

    @pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-200])
    @pytest.mark.parametrize("bad, fault", [
        ([[0.0, 1.0], [2.0, 0.0]], "asymmetric"),
        ([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]], "triangle")])
    def test_small_sets_are_checked_as_strictly(self, bad, fault, scale):
        # the tolerance shrinks with a diameter below 1, so a small set is
        # held to the same relative accuracy as a unit one
        with pytest.raises(metric.MetricValidationError, match=fault):
            metric.FiniteMetricSet(np.array(bad) * scale)

    @pytest.mark.parametrize("scale", [1e-9, 1e-100, 1e-200])
    @pytest.mark.parametrize("n", [60, 250])
    def test_accepts_small_scale_clouds(self, scale, n):
        # 250 points take the sampled triangle check
        pts = derive_rng(2, "small-cloud").uniform(0, 1, size=(n, 2)) * scale
        s = metric.FiniteMetricSet.from_points(pts)
        metric.FiniteMetricSet(s.rows(slice(None)))   # must not raise

    def test_subnormal_triangles_allow_a_few_quanta(self):
        # scaled back to 1e-316, every distance rounds to a subnormal
        # quantum, and a triangle of them can fail by more than the relative
        # tolerance; a violation of a third of the distances still fails
        for i in range(20):
            pts = derive_rng(5, "subnormal", i).uniform(0, 1, size=(100, 2)) * 1e-316
            s = metric.FiniteMetricSet.from_points(pts)
            metric.FiniteMetricSet(s.rows(slice(None)))   # must not raise
        bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]) * 1e-316
        with pytest.raises(metric.MetricValidationError, match="triangle"):
            metric.FiniteMetricSet(bad)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(metric.MetricValidationError):
            metric.FiniteMetricSet(np.array([[0.5]]))

    def test_sampled_validation_beyond_200_points(self):
        pts = derive_rng(0, "big-cloud").uniform(0, 1, size=(250, 2))
        metric.FiniteMetricSet.from_points(pts)  # must not raise

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        pts = np.zeros((4, 2))
        pts[2, 1] = bad
        with pytest.raises(metric.MetricValidationError, match="row 2"):
            metric.FiniteMetricSet.from_points(pts)
        with pytest.raises(metric.MetricValidationError, match="row 2"):
            metric.FiniteMetricSet(pts[:, [0, 1, 1, 0]])   # a 4 x 4 matrix

    def test_extreme_scale_distances_keep_their_digits(self):
        # cdist sums squares, which underflow below about 1e-154; the cloud
        # is read through a power-of-two rescaling instead
        s = metric.FiniteMetricSet.from_points([[0.0, 0.0], [1e-200, 0.0],
                                                [0.0, 1e-160]])
        d = s.rows(slice(None))
        assert abs(d[0, 1] - 1e-200) <= np.spacing(1e-200)
        assert abs(d[0, 2] - 1e-160) <= np.spacing(1e-160)
        assert s.min_positive_distance() == d[0, 1]
        near = metric.nearest_distances(s.points[1:], s.points[:1])
        assert near.tolist() == [d[0, 1], d[0, 2]]

    @pytest.mark.parametrize("k", [-664, -531, 531, 664, 1023])
    def test_rescaled_cloud_reads_the_scaled_distances(self, k):
        # a power-of-two scale is exact, so the distances are those of the
        # unscaled cloud scaled the same way, bit for bit; 250 points take
        # the sampled triangle check
        pts = derive_rng(0, "big-cloud").uniform(0, 1, size=(250, 2))
        s = metric.FiniteMetricSet.from_points(np.ldexp(pts, k))
        assert s._scaled is not s.points
        assert np.array_equal(s.rows(slice(None)), np.ldexp(cdist(pts, pts), k))

    def test_moderate_clouds_are_not_rescaled(self):
        # every cloud with its largest |coordinate| in [2^-500, 2^500] reads
        # cdist's own bits
        pts = derive_rng(1, "moderate").uniform(-1, 1, size=(30, 3))
        pts /= np.abs(pts).max()
        for k in (-500, 0, 500):
            s = metric.FiniteMetricSet.from_points(np.ldexp(pts, k))
            assert s._scaled is s.points
            assert np.array_equal(s.rows(slice(None)), cdist(s.points, s.points))

    def test_point_cloud_memory_follows_the_block_budget(self):
        # the distance matrix of 4000 points would take 128 MB
        pts = derive_rng(2, "memory").uniform(0, 1, size=(4000, 2))
        tracemalloc.start()
        try:
            s = metric.FiniteMetricSet.from_points(pts)
            scales = s.diameter * 2.0 ** -np.arange(8)
            for eps in scales:
                witness = metric.maximal_packing(eps, s)
                assert metric.is_epsilon_net(witness, eps, s)
            assert metric.covering_counts(s, scales)[-1] == len(witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < metric.BLOCK_BYTES


def count_distances(monkeypatch) -> list:
    """The sizes of the results of every later call of the distance kernel,
    which computes every distance of a point cloud."""
    kernel, computed = metric._sqsums, []

    def counting(xs, ys):
        sq = kernel(xs, ys)
        computed.append(sq.size)
        return sq

    monkeypatch.setattr(metric, "_sqsums", counting)
    return computed


def full_row_traversal(s):
    """(order, radii, diameter) as the traversal found them before it read
    windows: every selected row whole, the diameter their maximum."""
    n = s.n
    order = np.empty(n, dtype=int)
    radii = np.zeros(n)
    mind = np.full(n, np.inf)   # -inf marks a selected point
    diameter = -np.inf
    for i in range(n):
        # argmax takes the lowest index on ties, so index 0 comes first
        nxt = int(np.argmax(mind))
        if mind[nxt] <= 0:
            order[i:] = np.flatnonzero(mind > -np.inf)
            break
        order[i], radii[i] = nxt, mind[nxt]
        row = s.rows(nxt)
        diameter = max(diameter, float(row.max()))
        np.minimum(mind, row, out=mind)
        mind[nxt] = -np.inf
    return order, radii, diameter if n else 0.0


def assert_matches_whole_rows(s):
    order, radii = s.farthest_point_order()
    ref_order, ref_radii, ref_diameter = full_row_traversal(s)
    assert order.tolist() == ref_order.tolist()
    assert [r.hex() for r in radii] == [r.hex() for r in ref_radii]
    assert s.diameter.hex() == ref_diameter.hex()


class TestWindowedTraversal:
    @pytest.mark.parametrize("scale", [1.0, 1e-316])
    def test_matches_whole_rows_on_5000_points(self, monkeypatch, scale):
        # at 1e-316 the coordinates are subnormal, and so are the distances
        # once scaled back: some merge into one value (21 radii repeat), so
        # the argmax breaks ties that the scaled distances do not have
        pts = derive_rng(3, "window").uniform(0, 1, size=(5000, 2)) * scale
        computed = count_distances(monkeypatch)
        s = metric.FiniteMetricSet.from_points(pts)
        # the windows and the near-hull rows hold a few percent of n^2
        assert sum(computed) < 0.1 * s.n ** 2
        assert_matches_whole_rows(s)

    def test_window_edges_carry_the_rounding_slack(self):
        # points 4, 5, 7 and 6 times v on a line through point 0, and one
        # off it: there |r0(p) - r0(c)| = d(p, c) exactly, and rounded it
        # exceeds the computed d(p, c), so a window without the slack leaves
        # out a point whose distance to the selection drops
        v = [0.7346407311889063, 0.8765026053784535]
        pts = np.vstack([np.outer([0.0, 4.0, 5.0, 7.0, 6.0], v),
                         [[-2.6057772395040075, -2.2132022962842335]]])
        assert_matches_whole_rows(metric.FiniteMetricSet.from_points(pts))

    def test_diameter_reads_the_band_beside_the_vertices(self):
        # points 1 and 3, and 4 and 5, lie a few ulps apart; scipy 1.17's
        # qhull keeps 3 and 5 as vertices, yet the computed diameter is
        # d(1, 4), one ulp above d(3, 5): the HULL_REL band holds 1 and 4
        pts = np.array([[1.1237184400681461, 0.8185524198853207],
                        [0.8703616108749258, 1.084085726759884],
                        [-1.3832084928934716, 0.1396619555808713],
                        [0.8703616108749255, 1.084085726759884],
                        [-0.6201238758010941, -1.244273914904082],
                        [-0.6201238758010938, -1.2442739149040825]])
        s = metric.FiniteMetricSet.from_points(pts)
        assert metric._near_hull_rows(pts) is not None
        assert s.diameter.hex() == float(cdist(pts, pts).max()).hex()

    def test_a_matrix_reads_whole_rows(self):
        # the triangle 0, 2, 3 fails by 2e-10, inside the 4e-9 tolerance: a
        # window around point 2 at radius 1 would leave out point 3, whose
        # distance to the selection drops from 1 to 1 - 1e-10
        d = np.array([[0.0, 3.0, 1.0, 2.0 + 1e-10],
                      [3.0, 0.0, 2.0, 1.0],
                      [1.0, 2.0, 0.0, 1.0 - 1e-10],
                      [2.0 + 1e-10, 1.0, 1.0 - 1e-10, 0.0]])
        order, radii = metric.FiniteMetricSet(d).farthest_point_order()
        assert order.tolist() == [0, 1, 2, 3]
        assert radii.tolist() == [np.inf, 3.0, 1.0, 1.0 - 1e-10]


class TestIsEpsilonNet:
    def test_grid_net(self, grid101):
        assert metric.is_epsilon_net([25, 75], 0.25, grid101)

    def test_uncovered_point(self):
        s = line_set(0.0, 0.6)
        assert not metric.is_epsilon_net([0], 0.5, s)

    def test_vacuous_empty(self):
        empty = metric.FiniteMetricSet(np.zeros((0, 0)))
        assert metric.is_epsilon_net([], 1.0, empty)

    def test_empty_net_nonempty_set(self):
        assert not metric.is_epsilon_net([], 1.0, line_set(0.0))

    def test_rejects_nonpositive_eps(self, grid101):
        with pytest.raises(ValueError):
            metric.is_epsilon_net([0], 0.0, grid101)

    @pytest.mark.parametrize("net", [[-1, 0], [3], np.array([0, 3])])
    def test_rejects_indices_outside_the_set(self, net):
        # -1 used to read as point 2, and 3 raised a bare IndexError
        for s in (line_set(0.0, 1.0, 5.0), metric.FiniteMetricSet(
                np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]))):
            with pytest.raises(ValueError, match="0..2"):
                metric.is_epsilon_net(net, 10.0, s)
        with pytest.raises(ValueError):
            metric.is_epsilon_net([0], 1.0, metric.FiniteMetricSet(np.zeros((0, 0))))


def full_row_net_check(net, eps: float, s) -> bool:
    """True iff every point of s lies in a closed eps-ball around some center."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    net = np.asarray(list(net), dtype=int)
    if s.n == 0:
        return True
    if net.size == 0:
        return False
    nearest = np.full(s.n, np.inf)
    for b in metric.blocks(net.size, 8 * s.n):
        np.minimum(nearest, s.rows(net[b]).min(axis=0), out=nearest)
    return bool((nearest <= eps).all())


def net_cloud(kind, n, dim, scale, repeats, seed):
    """n points in dim dims: uniform, Gaussian, or an integer lattice of side
    2 to 6 (exact ties among distances), with `repeats` rows copied onto
    others, times scale."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    elif kind == "gaussian":
        pts = rng.standard_normal((n, dim))
    else:
        pts = rng.integers(0, rng.integers(2, 7), size=(n, dim)).astype(float)
    pts[rng.integers(0, n, repeats)] = pts[rng.integers(0, n, repeats)]
    return pts * scale


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestDistanceKernel:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["uniform", "gaussian", "lattice"]),
           n=st.integers(1, 60), dim=st.integers(1, 8),
           scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
           repeats=st.integers(0, 20), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_distances_are_cdist_bit_for_bit(self, kind, n, dim, scale, repeats,
                                             seed, data):
        # cdist on the cloud as the set reads it, scaled by a power of two
        # where its coordinates are far from 1, then scaled back
        pts = net_cloud(kind, n, dim, scale, repeats, seed)
        exp = metric._scale_exponent(pts)
        scaled = np.ldexp(pts, -exp)
        ref = np.ldexp(cdist(scaled, scaled), exp)
        s = metric.FiniteMetricSet.from_points(pts)
        assert hexes(s.rows(slice(None))) == hexes(ref)
        idx, cols = (data.draw(st.lists(st.integers(0, n - 1), max_size=n))
                     for _ in range(2))
        assert (hexes(s.distances(np.asarray(idx, dtype=int), np.asarray(cols, dtype=int)))
                == hexes(ref[np.ix_(idx, cols)]))
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        assert hexes(s.distances(i, j)) == hexes(ref[i, j])
        assert hexes(s.rows(i)) == hexes(ref[i])
        targets = net_cloud(kind, data.draw(st.integers(1, 30)), dim, scale, 0, seed + 1)
        texp = metric._scale_exponent(pts, targets)
        near = np.ldexp(cdist(np.ldexp(pts, -texp), np.ldexp(targets, -texp)), texp)
        assert (hexes(metric.nearest_distances(pts, targets))
                == hexes(near.min(axis=1)))


def qhull_near_rows(cloud):
    """The rows within HULL_REL of the boundary of qhull's hull, computed as
    ``_near_hull_rows`` did with qhull: every row where qhull fails."""
    x = np.ldexp(cloud, -np.frexp(np.abs(cloud).max())[1])
    try:
        hull = ConvexHull(x)
    except QhullError:
        return np.arange(len(x))
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    return np.flatnonzero((x @ normals.T + offsets).max(axis=1) >= -metric.HULL_REL)


class TestNearHullRows:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["uniform", "gaussian", "sphere", "lattice",
                                 "line", "plane"]),
           n=st.integers(4, 400), dim=st.sampled_from([2, 3]),
           scale=st.sampled_from([1e-300, 1.0, 1e300]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_holds_qhulls_near_rows(self, kind, n, dim, scale, seed):
        rng = np.random.default_rng(seed)
        if kind in ("line", "plane"):   # collinear, or coplanar in 3-D
            flat = 1 if kind == "line" else dim - 1
            cloud = (rng.uniform(-1, 1, (n, flat)) @ rng.standard_normal((flat, dim))
                     + rng.standard_normal(dim))
        elif kind == "lattice":
            cloud = rng.integers(0, rng.integers(2, 9), size=(n, dim)).astype(float)
        else:
            cloud = rng.standard_normal((n, dim))
            if kind == "sphere":   # a circle in 2-D
                cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
            elif kind == "uniform":
                cloud = rng.uniform(-1, 1, (n, dim))
        cloud *= scale
        near = metric._near_hull_rows(cloud)
        assert (np.diff(near) > 0).all()
        assert set(qhull_near_rows(cloud).tolist()) <= set(near.tolist())


class TestWindowedNetCheck:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["uniform", "gaussian", "lattice"]),
           n=st.integers(1, 300), dim=st.integers(1, 5),
           scale=st.sampled_from([1e-316, 1.0, 1e300]),
           repeats=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1),
           block=st.integers(1, 300), data=st.data())
    def test_verdicts_match_whole_rows(self, kind, n, dim, scale, repeats,
                                       seed, block, data):
        s = metric.FiniteMetricSet.from_points(
            net_cloud(kind, n, dim, scale, repeats, seed))
        order, radii = s.farthest_point_order()
        k = data.draw(st.integers(1, max(n - 1, 1)))
        nets = [(order[:k], [s.diameter * 2.0 ** -data.draw(st.integers(0, 8))]
                 + ([radii[k]] if k < n else []))]
        for _ in range(2):
            net = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=min(n, 40)))
            nets.append((net, [s.rows(net).min(axis=0).max()]))
        verdicts = set()
        with mock.patch.object(metric, "NET_BLOCK", block):
            for net, scales in nets:
                for e in scales:
                    for eps in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)):
                        if 0 < eps < np.inf:
                            got = metric.is_epsilon_net(net, eps, s)
                            assert got == full_row_net_check(net, eps, s)
                            verdicts.add(got)
        if k < n and radii[k] > 0:   # radii[k] covers, its neighbour below not
            assert verdicts == {True, False}

    @pytest.mark.parametrize("block, net", [(1, [0, 4, 5]), (2, [0, 1, 2, 3, 5]),
                                            (3, [0, 3, 4, 5])])
    def test_windows_carry_the_rounding_slack(self, block, net):
        # the traversal's edge cloud: on its line through point 0 the rounded
        # |r0(p) - r0(c)| exceeds the computed d(p, c), so a window of width
        # eps alone leaves out the center that covers p at its exact distance
        v = [0.7346407311889063, 0.8765026053784535]
        pts = np.vstack([np.outer([0.0, 4.0, 5.0, 7.0, 6.0], v),
                         [[-2.6057772395040075, -2.2132022962842335]]])
        s = metric.FiniteMetricSet.from_points(pts)
        eps = s.rows(net).min(axis=0).max()
        with mock.patch.object(metric, "NET_BLOCK", block):
            assert metric.is_epsilon_net(net, eps, s)

    def test_rescaled_windows_carry_two_subnormal_quanta(self):
        # on the diagonal, in units of the smallest subnormal q, d(1, 2) is
        # sqrt(2) q scaled back to q: point 2's key lies 1.41 q from point
        # 1's, beyond eps = q plus the slack, yet point 1 covers it at q
        s = metric.FiniteMetricSet.from_points(
            np.array([[0.0, 0.0], [5.0, 5.0], [6.0, 6.0]]) * 5e-324)
        assert s._exp and s.rows(1)[2] == 5e-324
        with mock.patch.object(metric, "NET_BLOCK", 1):
            assert metric.is_epsilon_net([0, 1], 5e-324, s)

    @pytest.mark.parametrize("block", [1, 2, 256])
    def test_every_point_is_checked(self, block):
        # two blocks and one point: with any one point left out of the net,
        # the ends of the key order and of each block among them, a scale
        # below every distance leaves that point uncovered
        pts = derive_rng(4, "every-point").uniform(0, 1, size=(2 * block + 1, 2))
        s = metric.FiniteMetricSet.from_points(pts)
        eps = s.min_positive_distance() / 2
        with mock.patch.object(metric, "NET_BLOCK", block):
            assert metric.is_epsilon_net(np.arange(s.n), eps, s)
            for left_out in range(s.n):
                net = np.delete(np.arange(s.n), left_out)
                assert not metric.is_epsilon_net(net, eps, s)

    def test_computes_a_tenth_of_the_distances(self, monkeypatch):
        # cover's finest default scale (8 scales) on 5000 uniform points
        pts = derive_rng(3, "net-window").uniform(0, 1, size=(5000, 2))
        s = metric.FiniteMetricSet.from_points(pts)
        eps = s.diameter * 2.0 ** -7
        net = metric.maximal_packing(eps, s)
        computed = count_distances(monkeypatch)
        assert metric.is_epsilon_net(net, eps, s)
        assert sum(computed) <= 0.1 * s.n * len(net)
        assert not metric.is_epsilon_net(net[:-1], eps, s)


class TestMaximalPacking:
    def test_two_points(self):
        s = line_set(0.0, 1.0)
        assert list(metric.maximal_packing(0.25, s)) == [0, 1]

    def test_singleton(self):
        s = line_set(0.3)
        for eps in (0.1, 10.0):
            assert list(metric.maximal_packing(eps, s)) == [0]

    def test_separation_and_coverage(self, grid101):
        pack = metric.maximal_packing(0.3, grid101)
        sub = grid101.rows(pack)[:, pack]
        off = sub[np.triu_indices(len(pack), 1)]
        assert (off > 0.3).all()
        assert metric.is_epsilon_net(pack, 0.3, grid101)

    def test_farthest_counts_monotone(self):
        # the farthest-point prefix structure makes counts monotone in eps
        rng = derive_rng(3, "fps-mono")
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(30, 2))
            s = metric.FiniteMetricSet.from_points(pts)
            scales = np.geomspace(1e-3, 2.0, 12)
            counts = [len(metric.maximal_packing(e, s)) for e in scales]
            assert (np.diff(counts) <= 0).all()


class TestCoveringNumbers:
    def test_two_point_bounds(self):
        s = line_set(0.0, 1.0)
        b = metric.covering_number_bounds(0.4, s)
        assert b.lower >= 1
        assert b.upper == 2
        assert metric.is_epsilon_net(b.witness, 0.4, s)

    def test_singleton_bounds(self):
        b = metric.covering_number_bounds(0.5, line_set(2.0))
        assert (b.lower, b.upper) == (1, 1)

    def test_exact_examples(self):
        assert exact_covering_number(0.4, line_set(0.0, 1.0)) == 2
        assert exact_covering_number(1.0, line_set(5.0)) == 1
        assert exact_covering_number(0.5, line_set(0.0, 0.5, 1.0)) == 1

    def test_exact_rejects_large_instance(self):
        pts = np.arange(26, dtype=float)[:, None]
        with pytest.raises(SizeLimitError):
            exact_covering_number(1.0, metric.FiniteMetricSet.from_points(pts))

    def test_upper_dominates_exact_random_square(self):
        rng = derive_rng(11, "square")
        pts = rng.uniform(0, 1, size=(20, 2))
        s = metric.FiniteMetricSet.from_points(pts)
        b = metric.covering_number_bounds(0.1, s)
        assert b.upper >= exact_covering_number(0.1, s)

    def test_packing_covering_sandwich_sweep(self):
        rng = derive_rng(17, "sandwich")
        for _ in range(30):
            n = int(rng.integers(3, 13))
            pts = rng.uniform(0, 1, size=(n, int(rng.integers(1, 4))))
            s = metric.FiniteMetricSet.from_points(pts)
            eps = float(rng.uniform(0.1, 0.8))
            exact = exact_covering_number(eps, s)
            lower = len(metric.maximal_packing(2 * eps, s))
            upper = metric.covering_number_bounds(eps, s).upper
            assert lower <= exact <= upper


class TestMetricEntropy:
    def test_singleton_zero(self):
        assert entropy(1.0, line_set(0.0)) == 0.0

    def test_two_point_log2(self):
        assert entropy(0.4, line_set(0.0, 1.0)) == pytest.approx(
            np.log(2), abs=1e-12)

    def test_one_ball_suffices(self):
        assert entropy(2.0, line_set(0.0, 1.0)) == 0.0

    def test_monotone_in_eps(self):
        rng = derive_rng(23, "entropy-mono")
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(25, 2))
            s = metric.FiniteMetricSet.from_points(pts)
            es = np.geomspace(0.01, 2.0, 10)
            vals = [entropy(e, s) for e in es]
            assert (np.diff(vals) <= 1e-12).all()


class TestEntropyIntegral:
    def test_singleton_zero(self):
        assert metric.entropy_integral(line_set(0.0), 1.0) == 0.0

    def test_two_point_closed_form(self):
        # integrand is sqrt(log 2) on (0, 1); the head bound is exact here
        val = metric.entropy_integral(line_set(0.0, 1.0), 1.0)
        assert val == pytest.approx(np.sqrt(np.log(2)), rel=0.01)
        assert abs(val - np.sqrt(np.log(2))) < 1e-12

    def test_upper_sum_and_refinement(self, monkeypatch):
        # interior jump at eps = 0.45: the quadrature error is a nonnegative
        # upper-sum excess that shrinks under grid refinement
        s = line_set(0.0, 0.55, 1.0)
        truth = 0.45 * np.sqrt(np.log(3)) + 0.55 * np.sqrt(np.log(2))
        errs = {}
        for n in (32, 64, 128, 256):
            monkeypatch.setattr(metric, "NODES", n)
            errs[n] = metric.entropy_integral(s, 1.0) - truth
        for err in errs.values():
            assert err >= -1e-12
        assert errs[128] <= 0.75 * errs[32]
        assert errs[256] <= 0.75 * errs[64]

    def test_monotone_in_D(self):
        rng = derive_rng(31, "integral-D")
        pts = rng.uniform(0, 1, size=(15, 2))
        s = metric.FiniteMetricSet.from_points(pts)
        ds = [0.5, 1.0, 2.0, 4.0]
        vals = [metric.entropy_integral(s, d) for d in ds]
        assert (np.diff(vals) >= -1e-12).all()
        assert all(v >= 0 for v in vals)


class TestDyadicSum:
    def test_dominated_by_twice_integral(self):
        # each scale term is at most twice the integral slice below it, so
        # the multiscale sum never exceeds twice the entropy integral
        rng = derive_rng(37, "ds-int")
        for _ in range(15):
            pts = rng.uniform(0, 1, size=(int(rng.integers(2, 40)),
                                          int(rng.integers(1, 4))))
            s = metric.FiniteMetricSet.from_points(pts)
            D = s.diameter if s.diameter > 0 else 1.0
            integral = metric.entropy_integral(s, D)
            for K in (1, 4, 12):
                assert metric.dyadic_sum(s, D, K) <= 2 * integral + 1e-12

    def test_zero_depth(self, grid101):
        assert metric.dyadic_sum(grid101, 1.0, 0) == 0.0

    def test_two_point_depth_two(self):
        # scale 1 needs one ball, scale 1/2 needs two
        val = metric.dyadic_sum(line_set(0.0, 1.0), 1.0, 2)
        assert val == pytest.approx(0.5 * np.sqrt(np.log(2)), abs=1e-12)

    def test_singleton_zero(self):
        assert metric.dyadic_sum(line_set(0.0), 1.0, 5) == 0.0


class TestEuclideanBallBound:
    def test_known_values(self):
        assert euclidean_ball_covering_bound(1.0, 1.0, 2) == 9.0
        assert euclidean_ball_covering_bound(0.0, 0.3, 7) == 1.0
        assert euclidean_ball_covering_bound(1.0, 0.5, 1) == 5.0

    def test_dominates_exact_covers_of_ball_subsets(self):
        rng = derive_rng(41, "ball")
        for _ in range(15):
            dim = int(rng.integers(1, 4))
            R = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(4, 26))
            raw = rng.standard_normal((n, dim))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            pts = raw * (R * rng.uniform(0, 1, size=(n, 1)) ** (1.0 / dim))
            s = metric.FiniteMetricSet.from_points(pts)
            eps = float(rng.uniform(0.3, 1.0)) * R
            assert (exact_covering_number(eps, s)
                    <= euclidean_ball_covering_bound(R, eps, dim))


class TestProfilesAndCsv:
    def test_profile_counts_monotone(self):
        rng = derive_rng(43, "profile")
        s = metric.FiniteMetricSet.from_points(rng.uniform(0, 1, size=(40, 2)))
        prof = metric.entropy_profile(s, np.geomspace(0.02, 1.5, 9))
        assert (np.diff(prof.counts) >= 0).all()  # scales stored decreasing
        assert (prof.entropies[prof.counts <= 1] == 0).all()
        # one row per scale: the nine scales are distinct
        assert [len(a) for a in (prof.scales, prof.lowers, prof.counts,
                                 prof.entropies)] == [9] * 4

    def test_point_csv_roundtrip(self, tmp_path):
        pts = derive_rng(47, "csv").uniform(0, 1, size=(12, 3))
        path = tmp_path / "pts.csv"
        np.savetxt(path, pts, delimiter=",")
        loaded = metric.load_points_csv(path)
        assert np.allclose(loaded, pts)

    def test_distance_matrix_csv(self, tmp_path):
        s = line_set(0.0, 0.5, 2.0)
        path = tmp_path / "dm.csv"
        np.savetxt(path, s.rows(slice(None)), delimiter=",")
        loaded = metric.load_distance_matrix_csv(path)
        assert np.allclose(loaded.rows(slice(None)), s.rows(slice(None)))
