"""Dyadic hierarchy and multiscale bound tests.

Oracles: half-normal mean E max(0, W) = 1/sqrt(2 pi) for the two-point
process, the exact Gaussian increment MGF, and the exact covering oracle for
net cardinalities at the shifted scale.
"""

import tracemalloc

import numpy as np
import pytest

from epkit import chaining, metric
from epkit.gaussian import McEstimate, three_sigma_margin
from epkit.rng import derive_rng

SEED = 2024


def two_point():
    return metric.FiniteMetricSet.from_points(np.array([[0.0], [1.0]]))


def random_cloud(rng, m, dim):
    return metric.FiniteMetricSet.from_points(rng.uniform(-1, 1, size=(m, dim)))


class TestCanonicalProcess:
    def test_centering(self):
        s = random_cloud(derive_rng(1, "c"), 10, 2)
        proc = chaining.CanonicalProcess(sigma=1.7)
        noise = derive_rng(2, "w").standard_normal((50, 2))
        x = proc.realize(s, noise)
        assert (x[0] == 0).all()

    def test_increment_scale(self):
        s = two_point()
        proc = chaining.CanonicalProcess(sigma=2.0)
        noise = derive_rng(3, "w").standard_normal((200000, 1))
        x = proc.realize(s, noise)
        inc = x[1] - x[0]
        assert inc.std() == pytest.approx(2.0 * 1.0, rel=0.02)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            chaining.CanonicalProcess(sigma=0.0)


class TestDyadicNets:
    def test_singleton_levels(self):
        s = metric.FiniteMetricSet.from_points(np.array([[0.3, 0.3]]))
        nets = chaining.build_dyadic_nets(s, D=1.0, K=3)
        for lv in nets.levels:
            assert list(lv.net) == [0]

    def test_grid_hierarchy_valid(self):
        s = metric.FiniteMetricSet.from_points(np.linspace(0, 1, 101)[:, None])
        nets = chaining.build_dyadic_nets(s, D=1.0, K=3)
        sizes = []
        for lv in nets.levels:
            assert metric.is_epsilon_net(lv.net, lv.eps, s)
            assert len(lv.net) == metric.covering_counts(s, lv.eps / 2.0)
            sizes.append(len(lv.net))
        assert (np.diff(sizes) >= 0).all()

    def test_diameter_guard(self):
        with pytest.raises(ValueError, match="exceeds declared D="):
            chaining.build_dyadic_nets(two_point(), D=0.5, K=1)

    def test_depth_bound(self):
        chaining.build_dyadic_nets(two_point(), K=chaining.MAX_DEPTH)
        for K in (-1, chaining.MAX_DEPTH + 1):
            with pytest.raises(chaining.DepthError, match=f"{chaining.MAX_DEPTH}"):
                chaining.build_dyadic_nets(two_point(), K=K)

    def test_cardinality_against_exact_oracle(self):
        # a maximal packing at eps is a net whose size is at most the exact
        # covering number at eps/2, i.e. two scales down from its level
        rng = derive_rng(5, "card")
        for _ in range(10):
            s = random_cloud(rng, int(rng.integers(5, 20)), 2)
            nets = chaining.build_dyadic_nets(s, K=3)
            for lv in nets.levels:
                exact = metric.exact_covering_number(lv.eps / 4.0, s)
                assert len(lv.net) <= exact

    def test_default_depth_saturates(self):
        rng = derive_rng(6, "depth")
        s = random_cloud(rng, 12, 2)
        nets = chaining.build_dyadic_nets(s)
        assert len(nets.levels[nets.K].net) == s.n


class TestRecursiveProjection:
    def test_depth_zero_chain(self):
        s = two_point()
        nets = chaining.build_dyadic_nets(s, D=1.0, K=0)
        u = int(nets.levels[0].net[0])
        assert chaining.recursive_projection(u, nets) == [u]

    def test_step_bounds(self):
        rng = derive_rng(7, "proj")
        for _ in range(10):
            s = random_cloud(rng, int(rng.integers(5, 40)), int(rng.integers(1, 4)))
            nets = chaining.build_dyadic_nets(s)
            margins = chaining.projection_step_margins(nets)
            assert margins.min() >= -1e-12

    def test_membership_guard(self):
        s = two_point()
        nets = chaining.build_dyadic_nets(s, D=1.0, K=1)
        with pytest.raises(ValueError):
            chaining.recursive_projection(99, nets)


class TestTelescoping:
    def test_exact_identity_sweep(self):
        rng = derive_rng(8, "tele")
        s = random_cloud(rng, 20, 2)
        nets = chaining.build_dyadic_nets(s)
        proc = chaining.CanonicalProcess(sigma=1.3)
        finest = nets.levels[nets.K].net
        for _ in range(100):
            u = int(finest[rng.integers(len(finest))])
            w = rng.standard_normal(2)
            assert chaining.telescoping_residual(u, nets, proc, w) <= 1e-10

    def test_basepoint_trivial(self):
        s = two_point()
        nets = chaining.build_dyadic_nets(s, D=1.0, K=2)
        proc = chaining.CanonicalProcess(sigma=1.0)
        assert chaining.telescoping_residual(0, nets, proc, np.array([0.9])) <= 1e-12


def hexes(values):
    return [float(v).hex() for v in values]


class TestSampleMaxima:
    @pytest.mark.parametrize("m", [1, 2, 33])
    @pytest.mark.parametrize("n", [1, 2, 3, 1025, 2049, 4097])
    def test_blocked_maxima_equal_dense_maxima(self, monkeypatch, m, n):
        monkeypatch.setattr(metric, "BLOCK_BYTES", 1)  # 1024-row blocks
        rng = derive_rng(14, "maxima", m, n)
        s = random_cloud(rng, m, 2)
        proc = chaining.CanonicalProcess(sigma=1.3)
        noise = rng.standard_normal((n, 2))
        x = proc.realize(s, noise)
        scaled = proc.coefficients(s.points, s.points[0])
        assert hexes(chaining.sample_maxima(scaled, noise)) == hexes(x.max(axis=0))
        for rows in (np.arange(0, m, 2), np.array([m - 1])):
            assert (hexes(chaining.sample_maxima(scaled, noise, rows=rows))
                    == hexes(x[rows].max(axis=0)))

    def test_checks_stay_within_the_block_budget(self):
        s = random_cloud(derive_rng(15, "cloud1000"), 1000, 2)
        proc = chaining.CanonicalProcess(sigma=1.0)
        nets = chaining.build_dyadic_nets(s)  # distances and traversal cached
        tracemalloc.start()
        try:
            chaining.stage1_bound_check(nets, proc, 100_000, SEED)
            chaining.dudley_bound_check(s, proc, 100_000, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense (1000 x 1e5) realization alone is 800 MB
        assert peak < 4 * metric.BLOCK_BYTES


class TestStage1:
    def test_singleton(self):
        s = metric.FiniteMetricSet.from_points(np.array([[0.0]]))
        nets = chaining.build_dyadic_nets(s, D=1.0, K=1)
        proc = chaining.CanonicalProcess(sigma=1.0)
        esup, bound = chaining.stage1_bound_check(nets, proc, 1000, SEED)
        assert esup.mean == 0.0
        assert bound == 0.0

    def test_two_point_oracle(self):
        nets = chaining.build_dyadic_nets(two_point(), D=1.0, K=1)
        proc = chaining.CanonicalProcess(sigma=1.0)
        esup, bound = chaining.stage1_bound_check(nets, proc, 200000, SEED)
        assert esup.mean == pytest.approx(1 / np.sqrt(2 * np.pi), abs=0.005)
        assert bound > esup.mean

    def test_finest_maxima_equal_realized_maxima(self):
        # every point, at the default depth; a subset, below it or when
        # points coincide
        proc = chaining.CanonicalProcess(sigma=1.3)
        cloud = random_cloud(derive_rng(16, "stage1-rows"), 30, 2)
        dup = metric.FiniteMetricSet.from_points(
            np.vstack([cloud.points, cloud.points[:5]]))
        for s, K, every in ((cloud, None, True), (cloud, 2, False),
                            (dup, None, False)):
            nets = chaining.build_dyadic_nets(s, K=K)
            finest = nets.levels[nets.K].net
            assert (len(finest) == s.n) == every
            esup, _ = chaining.stage1_bound_check(nets, proc, 3000, SEED)
            noise = derive_rng(SEED, "stage1", s.n, nets.K).standard_normal((3000, 2))
            expected = McEstimate.from_samples(
                proc.realize(s, noise)[finest].max(axis=0))
            assert (hexes([esup.mean, esup.stderr])
                    == hexes([expected.mean, expected.stderr]))

    def test_requires_depth(self):
        nets = chaining.build_dyadic_nets(two_point(), D=1.0, K=0)
        with pytest.raises(ValueError):
            chaining.stage1_bound_check(
                nets, chaining.CanonicalProcess(sigma=1.0), 100, SEED)

    def test_random_sweep(self):
        rng = derive_rng(9, "s1-sweep")
        for _ in range(6):
            s = random_cloud(rng, int(rng.integers(5, 50)), 2)
            proc = chaining.CanonicalProcess(sigma=float(rng.uniform(0.5, 2)))
            nets = chaining.build_dyadic_nets(s)
            for seed in range(2):
                esup, bound = chaining.stage1_bound_check(nets, proc, 20000, seed)
                assert esup.mean <= bound + 3 * esup.stderr


class TestDudleyBound:
    def test_two_point_oracle(self):
        proc = chaining.CanonicalProcess(sigma=1.0)
        esup, rhs = chaining.dudley_bound_check(two_point(), proc, 200000, SEED)
        assert esup.mean == pytest.approx(1 / np.sqrt(2 * np.pi), abs=0.005)
        assert rhs == pytest.approx(12 * np.sqrt(2) * np.sqrt(np.log(2)), rel=1e-6)
        assert rhs == pytest.approx(14.1289, abs=0.001)

    def test_diameter_guard(self):
        with pytest.raises(ValueError, match="exceeds declared D="):
            chaining.dudley_bound_check(
                two_point(), chaining.CanonicalProcess(sigma=1.0), 100, SEED, D=0.5)

    def test_singleton(self):
        s = metric.FiniteMetricSet.from_points(np.array([[1.0, 2.0]]))
        esup, rhs = chaining.dudley_bound_check(
            s, chaining.CanonicalProcess(sigma=1.0), 1000, SEED)
        assert esup.mean == 0.0
        assert rhs == 0.0

    def test_sigma_homogeneity_exact(self):
        rng = derive_rng(10, "homog")
        s = random_cloud(rng, 30, 2)
        e1, r1 = chaining.dudley_bound_check(
            s, chaining.CanonicalProcess(sigma=1.0), 20000, SEED)
        e2, r2 = chaining.dudley_bound_check(
            s, chaining.CanonicalProcess(sigma=2.0), 20000, SEED)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)
        assert e2.mean == pytest.approx(2 * e1.mean, rel=1e-12)

    def test_contract_on_cloud(self):
        rng = derive_rng(11, "cloud50")
        s = random_cloud(rng, 50, 2)
        proc = chaining.CanonicalProcess(sigma=2.0)
        esup, rhs = chaining.dudley_bound_check(s, proc, 20000, SEED)
        assert esup.mean <= rhs + 3 * esup.stderr


class TestSubGaussianCheck:
    def test_degenerate_pair(self):
        s = two_point()
        proc = chaining.CanonicalProcess(sigma=1.0)
        worst, rows = chaining.subgaussian_process_check(
            s, proc, [(0, 0)], [0.7], 1000, SEED)
        assert worst >= 0.0
        assert rows[0].empirical == pytest.approx(1.0)

    def test_zero_lambda(self):
        worst, rows = chaining.subgaussian_process_check(
            two_point(), chaining.CanonicalProcess(sigma=1.0),
            [(0, 1)], [0.0], 1000, SEED)
        assert rows[0].empirical == pytest.approx(1.0)
        assert rows[0].bound == pytest.approx(1.0)

    def test_gaussian_saturation(self):
        # the canonical increments are exactly Gaussian, so the empirical MGF
        # matches exp(l^2 sigma^2 d^2 / 2) within noise
        proc = chaining.CanonicalProcess(sigma=1.0)
        worst, rows = chaining.subgaussian_process_check(
            two_point(), proc, [(0, 1)], [0.5, -0.5, 1.0], 200000, SEED)
        for row in rows:
            assert row.empirical == pytest.approx(row.bound, abs=4 * row.stderr)
        assert worst >= 0.0

    def test_needs_inputs(self):
        with pytest.raises(ValueError):
            chaining.subgaussian_process_check(
                two_point(), chaining.CanonicalProcess(sigma=1.0), [], [1.0],
                100, SEED)


class TestDenseSequence:
    def test_identical_sets(self):
        s = two_point().points
        chk = chaining.dense_sequence_sup_check(
            s, s, chaining.CanonicalProcess(sigma=1.0), 5000, SEED)
        assert chk.fine.mean == pytest.approx(chk.coarse.mean, abs=1e-12)
        assert chk.mesh == 0.0

    def test_grid_refinement(self):
        coarse = np.linspace(0, 1, 11)[:, None]
        fine = np.linspace(0, 1, 101)[:, None]
        proc = chaining.CanonicalProcess(sigma=1.0)
        chk = chaining.dense_sequence_sup_check(coarse, fine, proc, 100000, SEED)
        assert chk.mesh == pytest.approx(0.05, abs=1e-12)
        assert chk.gap_bound == pytest.approx(0.05 * np.sqrt(2 / np.pi), rel=1e-9)
        assert three_sigma_margin(chk.gap, chk.gap_bound) >= 0.0
        # supremum over a superset cannot drop
        assert chk.fine.mean >= chk.coarse.mean - 3 * chk.fine.stderr

    def test_2d_refinement(self):
        rng = derive_rng(12, "dense2d")
        base = rng.uniform(0, 1, size=(15, 2))
        extra = rng.uniform(0, 1, size=(60, 2))
        coarse = base
        fine = np.vstack([base, extra])
        chk = chaining.dense_sequence_sup_check(
            coarse, fine, chaining.CanonicalProcess(sigma=1.5), 40000, SEED)
        assert three_sigma_margin(chk.gap, chk.gap_bound) >= 0.0

    def test_containment_required(self):
        rng = derive_rng(13, "densebad")
        coarse = rng.uniform(0, 1, size=(5, 2))
        fine = rng.uniform(0, 1, size=(20, 2))
        with pytest.raises(ValueError):
            chaining.dense_sequence_sup_check(
                coarse, fine, chaining.CanonicalProcess(sigma=1.0), 100, SEED)


class TestIndexSetGuard:
    """The process reads coordinates: a distance matrix, or an empty cloud,
    is refused where chaining reads the points."""

    @pytest.mark.parametrize("ms, match", [
        (metric.FiniteMetricSet(np.array([[0.0, 1.0], [1.0, 0.0]])),
         "not a distance matrix"),
        (metric.FiniteMetricSet.from_points(np.zeros((0, 2))),
         "at least one point"),
    ])
    def test_entry_points_refuse(self, ms, match):
        proc = chaining.CanonicalProcess(sigma=1.0)
        calls = [lambda: proc.realize(ms, np.ones((3, 2))),
                 lambda: chaining.dudley_bound_check(ms, proc, 100, SEED),
                 lambda: chaining.subgaussian_process_check(
                     ms, proc, [(0, 1)], [1.0], 100, SEED),
                 lambda: chaining.stage1_bound_check(
                     chaining.build_dyadic_nets(ms, D=1.0, K=1), proc, 100, SEED)]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()


class TestDepthDefault:
    def test_two_point_default(self):
        assert chaining.default_depth(two_point(), 1.0) == 2

    def test_coincident_points(self):
        s = metric.FiniteMetricSet.from_points(np.zeros((3, 2)))
        assert chaining.default_depth(s, 1.0) == 1
