"""Dyadic hierarchy and multiscale bound tests.

Oracles: half-normal mean E max(0, W) = 1/sqrt(2 pi) for the two-point
process, the exact Gaussian increment MGF, and the exact covering oracle for
net cardinalities at the shifted scale.
"""

import json
import tracemalloc

import numpy as np
import pytest

from epkit import chaining, cli, metric
from epkit.gaussian import McEstimate, three_sigma_margin
from epkit.rng import derive_rng
from exact_cover import exact_covering_number

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
                exact = exact_covering_number(lv.eps / 4.0, s)
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


def residual_without_an_increment(u, nets, proc, noise):
    """telescoping_residual with the increment from level 3 to level 4 left
    out; on the cloud below, level 4 adds 126 of the 400 points."""
    x = proc.realize(nets.metric_set, noise[None, :])[:, 0]
    chain = chaining.recursive_projection(u, nets)
    lhs, rhs = x[u] - x[0], x[chain[0]] - x[0]
    for k in range(nets.K):
        if k != 3:
            rhs += x[chain[k + 1]] - x[chain[k]]
    return float(abs(lhs - rhs))


class TestTelescopingRow:
    CLOUD = derive_rng(400, "telescope-cloud").uniform(size=(400, 3))

    def row(self, tmp_path, scale, seed):
        path = tmp_path / f"cloud-{scale:g}.csv"
        np.savetxt(path, self.CLOUD * scale, delimiter=",", fmt="%.17g")
        out = tmp_path / f"out-{scale:g}-{seed}"
        cli.main(["dudley", "--points", str(path), "--samples", "2000",
                  "--seed", str(seed), "--out", str(out), "--format", "json"])
        reports = json.loads((out / "dudley_reports.json").read_text())["reports"]
        return next(r for r in reports if r["check"] == "telescoping-residual")

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_rounding_scales_with_the_cloud(self, tmp_path, seed):
        # the residual of values near 1e140 is rounding near 1e124, far above
        # EXACT_TOL; at unit scale the bound is EXACT_TOL itself
        unit, huge = self.row(tmp_path, 1.0, seed), self.row(tmp_path, 1e140, seed)
        assert unit["verdict"] == huge["verdict"] == "pass"
        assert unit["rhs"] == cli.EXACT_TOL
        assert 1e120 < huge["lhs"] < huge["rhs"] < 1e130

    @pytest.mark.parametrize("scale", [1.0, 1e140])
    def test_a_dropped_increment_fails(self, tmp_path, monkeypatch, scale):
        monkeypatch.setattr(chaining, "telescoping_residual",
                            residual_without_an_increment)
        assert self.row(tmp_path, scale, 1)["verdict"] == "fail"


def hexes(values):
    return [float(v).hex() for v in values]


class TestSampleMaxima:
    @pytest.mark.parametrize("m", [1, 2, 4, 5, 33, 65, 1000])
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

    @pytest.mark.parametrize("k", [7, 11])
    def test_points_on_a_facet_between_vertices_are_kept(self, k):
        # the integer triangle x, y >= 0, x + y <= k: every point of the
        # hypotenuse attains the exact maximum along (0.7, 0.7), and one
        # between its two vertices rounds highest
        points = np.array([(x, y) for x in range(k + 1) for y in range(k + 1 - x)],
                          dtype=float)
        noise = derive_rng(16, "facet", k).standard_normal((chaining.BLAS_ALIGN, 2))
        noise[0] = 0.7
        x = points @ noise.T
        assert (hexes(chaining.sample_maxima(points, noise))
                == hexes(x.max(axis=0)))

    def test_points_just_inside_a_slanted_facet_are_kept(self):
        # integer points of 5x + 6y <= 510 at spacing 0.1: qhull puts some
        # points of the slanted facet a rounding error inside it, and along
        # its normal one of them rounds highest
        points = 0.1 * np.array([(x, y) for x in range(103) for y in range(86)
                                 if 5 * x + 6 * y <= 510], dtype=float)
        rng = derive_rng(18, "slanted")
        noise = rng.standard_normal((chaining.BLAS_ALIGN, 2))
        noise[:64] = np.outer(rng.uniform(0.3, 2.0, 64), [5.0, 6.0]) / np.sqrt(61.0)
        assert (hexes(chaining.sample_maxima(points, noise))
                == hexes((points @ noise.T).max(axis=0)))

    def test_a_last_block_of_4_to_7_modulo_8_rows_is_multiplied_whole(
            self, monkeypatch):
        # OpenBLAS rounds the trailing entries of such a block by the number
        # of rows multiplied, so it multiplies every row: the maxima are
        # those of each block's product of every row
        monkeypatch.setattr(metric, "BLOCK_BYTES", 1)
        for tail in range(4, 8):
            rng = derive_rng(19, "tail", tail)
            scaled = rng.uniform(-1, 1, size=(65, 2))
            noise = rng.standard_normal((3 * chaining.BLAS_ALIGN + tail, 2))
            blocks = metric.blocks(len(noise), 8 * 65, align=chaining.BLAS_ALIGN)
            expected = [(scaled @ noise[b].T).max(axis=0) for b in blocks]
            assert (hexes(chaining.sample_maxima(scaled, noise))
                    == hexes(np.concatenate(expected)))

    @pytest.mark.parametrize("n", [1, 3, 7, 1029])
    def test_no_hull_is_taken_without_a_block_of_a_multiple_of_8_rows(
            self, monkeypatch, n):
        def refuse(cloud):
            raise AssertionError("hull taken")
        monkeypatch.setattr(metric, "_near_hull_rows", refuse)
        rng = derive_rng(17, "unaligned", n)
        scaled = rng.uniform(-1, 1, size=(100, 2))
        noise = rng.standard_normal((n, 2))
        assert (hexes(chaining.sample_maxima(scaled, noise))
                == hexes((scaled @ noise.T).max(axis=0)))

    @pytest.mark.parametrize("dim", [1, 4])
    def test_only_2_and_3_dimensional_clouds_take_the_hull(self, dim):
        cloud = derive_rng(21, "dims", dim).uniform(-1, 1, size=(100, dim))
        assert metric._near_hull_rows(cloud) is None

    @pytest.mark.parametrize("dim, most", [(2, 40), (3, 120)])
    def test_near_hull_rows_do_not_depend_on_scale(self, dim, most):
        # the exact power-of-two rescaling keeps the same few rows at every
        # scale
        cloud = derive_rng(20, "scale", dim).uniform(-1, 1, size=(1000, dim))
        near = metric._near_hull_rows(cloud)
        assert len(near) <= most and (np.diff(near) > 0).all()
        for scale in (1e-150, 1e100, 1e150):
            assert np.array_equal(metric._near_hull_rows(cloud * scale), near)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dudley_reports_do_not_depend_on_the_hull(self, monkeypatch,
                                                      tmp_path, dim):
        # the hull only saves work: with no near-hull set, sample_maxima
        # multiplies every point and the traversal takes the diameter from
        # every selected row, and every report byte stays
        rng = derive_rng(22, "no-hull", dim)
        cloud = rng.uniform(-1, 1, size=(400, dim))
        cloud[rng.integers(0, 400, 40)] = cloud[rng.integers(0, 400, 40)]
        np.savetxt(tmp_path / "pts.csv", cloud, delimiter=",", fmt="%.17g")
        args = ["dudley", "--points", str(tmp_path / "pts.csv"),
                "--samples", "4096", "--seed", "3", "--out"]
        assert cli.main([*args, str(tmp_path / "hull")]) == 0
        monkeypatch.setattr(metric, "_near_hull_rows", lambda cloud: None)
        assert cli.main([*args, str(tmp_path / "whole")]) == 0
        for name in ("dudley_reports.csv", "dudley_profile.csv"):
            assert ((tmp_path / "hull" / name).read_bytes()
                    == (tmp_path / "whole" / name).read_bytes())

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


class TestChiMean:
    def test_anchors(self):
        assert chaining.chi_mean(1) == np.sqrt(2 / np.pi)
        assert chaining.chi_mean(2) == np.sqrt(np.pi / 2)
        with pytest.raises(ValueError):
            chaining.chi_mean(0)

    def test_consecutive_product_identity(self):
        # Gamma(x + 1) = x Gamma(x) gives E chi_r E chi_{r+1} = r exactly
        c = [chaining.chi_mean(r) for r in range(1, 5002)]
        rel = [abs(a * b / r - 1.0) for r, (a, b) in enumerate(zip(c, c[1:]), 1)]
        assert max(rel) <= 2e-14

    def test_matches_the_log_gamma_form(self):
        from scipy.special import gammaln

        for r in range(1, 513):
            want = np.exp(0.5 * np.log(2.0) + gammaln((r + 1) / 2) - gammaln(r / 2))
            assert chaining.chi_mean(r) == pytest.approx(want, rel=1e-12, abs=0)


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


class TestSampleBudget:
    def test_budget_values(self):
        assert chaining.sample_budget(2) == 26843545
        default = cli._SAMPLES.default
        assert chaining.sample_budget(1339) >= default > chaining.sample_budget(1340)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_checks_hold_the_budgeted_bytes_per_sample(self, dim):
        # at a multiple of 8 samples every block multiplies only the points
        # near the hull, and the block products take at most twice
        # BLOCK_BYTES whatever the sample count; what grows with the samples
        # is the noise panel and the per-sample vectors, so their bytes per
        # sample are the growth of the peak from n to 2n samples
        n = 1 << 17
        rng = derive_rng(16, "budget", dim)
        pts = rng.uniform(-1, 1, size=(200, dim))
        s = metric.FiniteMetricSet.from_points(pts)
        fine = np.vstack([pts, rng.uniform(-1, 1, size=(50, dim))])
        proc = chaining.CanonicalProcess(sigma=1.0)
        nets = chaining.build_dyadic_nets(s, K=4)
        calls = [lambda m: chaining.stage1_bound_check(nets, proc, m, SEED),
                 lambda m: chaining.dudley_bound_check(s, proc, m, SEED),
                 lambda m: chaining.subgaussian_process_check(
                     s, proc, [(0, 199), (3, 7)], [-1.0, 0.5], m, SEED),
                 lambda m: chaining.dense_sequence_sup_check(pts, fine, proc, m,
                                                             SEED)]

        def peak(call, m):
            call(m)   # distances and hulls cached outside the measurement
            tracemalloc.start()
            try:
                call(m)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = [(peak(call, n), peak(call, 2 * n)) for call in calls]
        per_sample = [(big - small) / n for small, big in peaks]
        assert max(per_sample) <= 8 * (dim + 3) + 0.1
        assert max(big for _, big in peaks) <= (8 * (dim + 3) * 2 * n
                                                + 2 * metric.BLOCK_BYTES)
        # the MGF grid holds the budgeted bytes, not fewer
        assert per_sample[2] > 8 * (dim + 2) + 4
