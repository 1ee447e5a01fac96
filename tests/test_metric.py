"""Covering/packing calculus tests.

Oracle checklist:
- exact_covering_number (branch and bound) validates the greedy sandwich;
- closed-form entropy integral of small sets validates the quadrature;
- Euclidean ball bound checked against exact covers of sampled ball subsets.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from epkit import metric
from epkit.rng import derive_rng


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
        assert metric.exact_covering_number(0.4, line_set(0.0, 1.0)) == 2
        assert metric.exact_covering_number(1.0, line_set(5.0)) == 1
        assert metric.exact_covering_number(0.5, line_set(0.0, 0.5, 1.0)) == 1

    def test_exact_rejects_large_instance(self):
        pts = np.arange(26, dtype=float)[:, None]
        with pytest.raises(metric.SizeLimitError):
            metric.exact_covering_number(1.0, metric.FiniteMetricSet.from_points(pts))

    def test_upper_dominates_exact_random_square(self):
        rng = derive_rng(11, "square")
        pts = rng.uniform(0, 1, size=(20, 2))
        s = metric.FiniteMetricSet.from_points(pts)
        b = metric.covering_number_bounds(0.1, s)
        assert b.upper >= metric.exact_covering_number(0.1, s)

    def test_packing_covering_sandwich_sweep(self):
        rng = derive_rng(17, "sandwich")
        for _ in range(30):
            n = int(rng.integers(3, 13))
            pts = rng.uniform(0, 1, size=(n, int(rng.integers(1, 4))))
            s = metric.FiniteMetricSet.from_points(pts)
            eps = float(rng.uniform(0.1, 0.8))
            exact = metric.exact_covering_number(eps, s)
            lower = len(metric.maximal_packing(2 * eps, s))
            upper = metric.covering_number_bounds(eps, s).upper
            assert lower <= exact <= upper


class TestMetricEntropy:
    def test_singleton_zero(self):
        assert metric.metric_entropy(1.0, line_set(0.0)) == 0.0

    def test_two_point_log2(self):
        assert metric.metric_entropy(0.4, line_set(0.0, 1.0)) == pytest.approx(
            np.log(2), abs=1e-12)

    def test_one_ball_suffices(self):
        assert metric.metric_entropy(2.0, line_set(0.0, 1.0)) == 0.0

    def test_monotone_in_eps(self):
        rng = derive_rng(23, "entropy-mono")
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(25, 2))
            s = metric.FiniteMetricSet.from_points(pts)
            es = np.geomspace(0.01, 2.0, 10)
            vals = [metric.metric_entropy(e, s) for e in es]
            assert (np.diff(vals) <= 1e-12).all()


class TestEntropyIntegral:
    def test_singleton_zero(self):
        assert metric.entropy_integral(line_set(0.0), 1.0) == 0.0

    def test_two_point_closed_form(self):
        # integrand is sqrt(log 2) on (0, 1); the head bound is exact here
        val = metric.entropy_integral(line_set(0.0, 1.0), 1.0)
        assert val == pytest.approx(np.sqrt(np.log(2)), rel=0.01)
        assert abs(val - np.sqrt(np.log(2))) < 1e-12

    def test_upper_sum_and_refinement(self):
        # interior jump at eps = 0.45: the quadrature error is a nonnegative
        # upper-sum excess that shrinks under grid refinement
        s = line_set(0.0, 0.55, 1.0)
        truth = 0.45 * np.sqrt(np.log(3)) + 0.55 * np.sqrt(np.log(2))
        errs = {n: metric.entropy_integral(s, 1.0, nodes=n) - truth
                for n in (32, 64, 128, 256)}
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

    def test_grid_resolution_precondition(self):
        with pytest.raises(ValueError):
            metric.entropy_integral(line_set(0.0, 1.0), 1.0, nodes=8)


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
        assert metric.euclidean_ball_covering_bound(1.0, 1.0, 2) == 9.0
        assert metric.euclidean_ball_covering_bound(0.0, 0.3, 7) == 1.0
        assert metric.euclidean_ball_covering_bound(1.0, 0.5, 1) == 5.0

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
            assert (metric.exact_covering_number(eps, s)
                    <= metric.euclidean_ball_covering_bound(R, eps, dim))


class TestProfilesAndCsv:
    def test_profile_counts_monotone(self):
        rng = derive_rng(43, "profile")
        s = metric.FiniteMetricSet.from_points(rng.uniform(0, 1, size=(40, 2)))
        prof = metric.entropy_profile(s, np.geomspace(0.02, 1.5, 9))
        assert (np.diff(prof.counts) >= 0).all()  # scales stored decreasing
        assert (prof.entropies[prof.counts <= 1] == 0).all()
        text = metric.profile_to_csv(prof)
        assert text.splitlines()[0] == "eps,lower,upper,entropy"
        assert len(text.splitlines()) == 10

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
