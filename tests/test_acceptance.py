"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criteria, tolerances as fixed contracts:

1. exact discrete chain, 200 instances per family, tolerance 1e-10, < 10 s
2. covering calculus on 100 random instances (exact sandwich), < 60 s
3. Gaussian MC suite, 20 fields per check at 1e5 samples, < 5 min
4. chaining suite, 20 geometries x 3 seeds plus closed forms, < 5 min
5. regression suite: oracle equivalence, homogeneity, error-bound frequency,
   rate slopes and bands, < 20 min
6. sparsification suite, 200 instances, < 2 min
7. byte-identical reports on rerun
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from epkit import chaining, cli, discrete, fields, gaussian, maurey, metric
from epkit import regression as rg
from epkit.rng import derive_rng
from exact_cover import euclidean_ball_covering_bound, exact_covering_number
from master_bound import auto_bracket, master_bound_experiment
from maurey_average import maurey_average_error
from product_spaces import random_binary_space

SEED = 2024
EXACT_TOL = 1e-10


def report(num, label, elapsed, limit):
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s < {limit:.0f}s)")


class TestCriterion1Discrete:
    def test_exact_chain_200_instances(self):
        start = time.perf_counter()
        for idx in range(200):
            rng = derive_rng(SEED, "acc1", idx)
            sp = random_binary_space(rng, n=3)
            f = rng.uniform(-1.0, 1.0, size=sp.n_outcomes)
            lhs, rhs = discrete.efron_stein_gap(f, sp)
            assert lhs <= rhs + EXACT_TOL
            y = np.abs(f) + 0.1
            t = rng.uniform(0.1, 2.0, size=sp.n_outcomes)
            ent, dual = discrete.entropy_duality_check(y, t, sp)
            assert dual <= ent + EXACT_TOL
            ent_eq, dual_eq = discrete.entropy_duality_check(y, y, sp)
            assert abs(ent_eq - dual_eq) <= EXACT_TOL
            lhs, rhs = discrete.tensorization_gap(y, sp)
            assert lhs <= rhs + EXACT_TOL
            lhs, rhs = discrete.han_inequality_gap(
                discrete.random_joint_pmf(rng, (2, 2, 2)))
            assert lhs <= rhs + EXACT_TOL
            g = rng.uniform(-2.0, 2.0, size=8)
            lhs, rhs = discrete.bernoulli_lsi_gap(g)
            assert lhs <= rhs + EXACT_TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(1, "exact discrete chain, 5 x 200 instances at 1e-10", elapsed, 10)


class TestCriterion2Covering:
    def test_sandwich_witness_and_ball_bound(self):
        start = time.perf_counter()
        for idx in range(100):
            rng = derive_rng(SEED, "acc2", idx)
            n = int(rng.integers(4, 26))
            dim = int(rng.integers(1, 4))
            s = metric.FiniteMetricSet.from_points(rng.uniform(0, 1, (n, dim)))
            dists = s.rows(slice(None))[np.triu_indices(n, 1)]
            eps = float(np.quantile(dists, rng.uniform(0.2, 0.6)))
            if eps <= 0:
                continue
            exact = exact_covering_number(eps, s)
            bounds = metric.covering_number_bounds(eps, s)
            lower = len(metric.maximal_packing(2 * eps, s))
            assert lower <= exact <= bounds.upper
            assert metric.is_epsilon_net(bounds.witness, eps, s)
        for idx in range(40):
            rng = derive_rng(SEED, "acc2-ball", idx)
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
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        report(2, "covering sandwich + ball bound on random instances",
               elapsed, 60)


class TestCriterion3GaussianMc:
    N = 100000

    def test_contracts_controls_and_tail_oracle(self):
        start = time.perf_counter()
        for f in fields.poincare_battery(20, SEED):
            lhs, rhs = gaussian.poincare_gap(f, self.N, SEED)
            assert gaussian.three_sigma_margin(lhs, rhs) >= 0, f.name
        for f in fields.lsi_battery(20, SEED):
            lhs, rhs = gaussian.gaussian_lsi_gap(f, self.N, SEED)
            assert gaussian.three_sigma_margin(lhs, rhs) >= 0, f.name
        for f in fields.lipschitz_battery(20, SEED):
            lam = 0.5 / f.lipschitz
            lhs, rhs = gaussian.herbst_cgf_gap(f, lam, self.N, SEED)
            assert lhs.mean <= rhs + 3 * lhs.stderr, f.name
            tail, bound = gaussian.lipschitz_tail_gap(f, f.lipschitz, self.N,
                                                      SEED)
            assert tail.mean <= bound + 3 * tail.stderr, f.name
        # positive controls: linear fields attain equality within the interval
        lin1 = fields.linear_field([1.0], name="control")
        lhs, rhs = gaussian.poincare_gap(lin1, self.N, SEED)
        assert abs(lhs.mean - rhs.mean) <= 3 * (lhs.stderr + rhs.stderr)
        lin2 = fields.linear_field([1.0, 0.0], name="control")
        lhs, rhs = gaussian.herbst_cgf_gap(lin2, 0.5, self.N, SEED)
        assert abs(lhs.mean - 0.125) <= 3 * lhs.stderr
        # tail frequency reproduces the normal tail within +-0.01
        tail, bound = gaussian.lipschitz_tail_gap(fields.linear_field([1.0], "linear"),
                                                  1.0, self.N, SEED)
        assert tail.mean == pytest.approx(2 * (1 - norm.cdf(1.0)), abs=0.01)
        assert bound == pytest.approx(1.2131, abs=1e-4)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        report(3, "Gaussian MC contracts on 20 fields/check + controls",
               elapsed, 300)


class TestCriterion4Chaining:
    def test_identities_bounds_and_closed_forms(self):
        start = time.perf_counter()
        rng = derive_rng(SEED, "acc4-paths")
        s = metric.FiniteMetricSet.from_points(rng.uniform(-1, 1, size=(30, 2)))
        nets = chaining.build_dyadic_nets(s)
        proc = chaining.CanonicalProcess(sigma=1.2)
        finest = nets.levels[nets.K].net
        for _ in range(100):
            u = int(finest[rng.integers(len(finest))])
            w = rng.standard_normal(2)
            assert chaining.telescoping_residual(u, nets, proc, w) <= 1e-10
        assert chaining.projection_step_margins(nets).min() >= -1e-12
        for g in range(20):
            grng = derive_rng(SEED, "acc4-geom", g)
            m = int(grng.integers(5, 51))
            dim = int(grng.integers(1, 4))
            cloud = metric.FiniteMetricSet.from_points(
                grng.uniform(-1, 1, size=(m, dim)))
            sigma = float(grng.uniform(0.5, 2.0))
            cproc = chaining.CanonicalProcess(sigma=sigma)
            cnets = chaining.build_dyadic_nets(cloud)
            assert chaining.projection_step_margins(cnets).min() >= -1e-12
            for seed in range(3):
                esup, bound = chaining.stage1_bound_check(cnets, cproc, 20000,
                                                          seed)
                assert esup.mean <= bound + 3 * esup.stderr, (g, seed)
                esup, rhs = chaining.dudley_bound_check(cloud, cproc, 20000,
                                                        seed)
                assert esup.mean <= rhs + 3 * esup.stderr, (g, seed)
        # two-point closed form
        two = metric.FiniteMetricSet.from_points(np.array([[0.0], [1.0]]))
        esup, rhs = chaining.dudley_bound_check(
            two, chaining.CanonicalProcess(sigma=1.0), 200000, SEED)
        assert esup.mean == pytest.approx(1 / np.sqrt(2 * np.pi), abs=0.005)
        assert rhs == pytest.approx(14.129, abs=0.001)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        report(4, "chaining identities + multiscale bounds, 20 x 3 sweep",
               elapsed, 300)


class TestCriterion5Regression:
    def test_oracles_bounds_and_rates(self):
        start = time.perf_counter()
        # the Monte Carlo localized complexity against its exact value
        # delta E||P w|| / sqrt(n), with ||P w|| chi-distributed
        rng = derive_rng(SEED, "acc5-design")
        X = rng.standard_normal((40, 5))
        mc = rg.localized_complexity_mc(X, rg.LinearClass(), 0.7, 20000, SEED)
        exact = 0.7 * chaining.chi_mean(rg.design_rank(X)) / np.sqrt(40)
        assert abs(mc.mean - exact) <= 3 * mc.stderr
        # critical-radius homogeneity in sigma on a common panel
        m1 = rg.RegressionModel(x=X, theta_star=np.zeros(5), sigma=1.0)
        m2 = rg.RegressionModel(x=X, theta_star=np.zeros(5), sigma=2.0)
        c1 = rg.critical_radius(m1, rg.LinearClass(), (1e-5, 5.0),
                                n_samples=2000, seed=SEED)
        c2 = rg.critical_radius(m2, rg.LinearClass(), (2e-5, 10.0),
                                n_samples=2000, seed=SEED)
        assert c2.delta_star == pytest.approx(2 * c1.delta_star, rel=1e-12)
        assert c1.ratio_monotone and c2.ratio_monotone
        # error-bound frequency against its exponential budget, 500 trials
        model = rg.RegressionModel(x=rng.standard_normal((50, 5)),
                                   theta_star=rng.standard_normal(5), sigma=1.0)
        cr = rg.critical_radius(model, rg.LinearClass(),
                                auto_bracket(model),
                                n_samples=2000, seed=SEED)
        for t in (cr.delta_star, 2 * cr.delta_star):
            freq, bound = master_bound_experiment(
                model, t=t, trials=500, seed=SEED, delta_star=cr.delta_star)
            assert freq.mean <= bound + 3 * freq.stderr
        # linear rate: slope -1 +- 0.15, chi-square(1) median control
        rep = rg.linear_rate_experiment([(64, 8), (128, 8), (256, 8), (512, 8)],
                                        1.0, 200, SEED)
        assert rep.slopes[8] == pytest.approx(-1.0, abs=0.15)
        assert max(c.normalized for c in rep.cells) < 2.0
        ctrl = rg.linear_rate_experiment([(1, 1)], 1.0, 4000, SEED)
        assert ctrl.cells[0].normalized == pytest.approx(0.455, abs=0.05)
        # l1 rate: normalized medians within a factor-3 band, d > n included
        l1rep = rg.l1_rate_experiment([(32, 64), (64, 128), (128, 256)],
                                      1.0, 1.0, 120, SEED)
        norms = [c.normalized for c in l1rep.cells]
        assert max(norms) / min(norms) < 3.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1200.0
        report(5, "regression oracles, error bound, and rate sweeps",
               elapsed, 1200)


class TestCriterion6Sparsification:
    def test_identities_and_nets(self):
        start = time.perf_counter()
        for idx in range(200):
            rng = derive_rng(SEED, "acc6", idx)
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 21))
            X = rng.standard_normal((n, d))
            X *= np.sqrt(n) / np.linalg.norm(X, axis=0)
            dic = maurey.ColumnDictionary(X)
            R = float(rng.uniform(0.5, 1.5))
            raw = rng.standard_normal(d)
            theta = raw / np.abs(raw).sum() * R * float(rng.uniform(0, 1))
            dist = maurey.maurey_distribution(theta, R, dic)
            v = X @ theta / np.sqrt(n)
            assert np.abs(dist.expectation() - v).max() < 1e-12
            second = maurey.maurey_second_moment(theta, R, dic)
            assert second <= R * np.abs(theta).sum() + 1e-12
            eps = float(rng.uniform(0.3, 0.8)) * R
            res = maurey.maurey_sparsify(dist, eps, seed=idx)
            assert res.success and res.attempts <= 64
            assert np.linalg.norm(res.combination.value - v) <= eps
        # closed-form 1/k law plus Monte Carlo agreement on one instance
        rng = derive_rng(SEED, "acc6-mc")
        X = rng.standard_normal((15, 5))
        X *= np.sqrt(15) / np.linalg.norm(X, axis=0)
        dic = maurey.ColumnDictionary(X)
        raw = rng.standard_normal(5)
        theta = raw / np.abs(raw).sum() * 0.9
        r1 = maurey_average_error(theta, 1.0, dic, k=4, n_mc=3000, seed=1)
        r2 = maurey_average_error(theta, 1.0, dic, k=8, n_mc=3000, seed=2)
        assert r1.closed_form == pytest.approx(2 * r2.closed_form, rel=1e-12)
        for r in (r1, r2):
            assert abs(r.estimate.mean - r.closed_form) <= 3 * r.estimate.stderr
        assert maurey.l1_hull_net_bound(3, 1.0, 0.5) == 2401
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(6, "sparsification identities on 200 instances + net bound",
               elapsed, 120)


class TestCriterion7Reproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        start = time.perf_counter()
        pts = tmp_path / "pts.csv"
        rng = np.random.default_rng(0)
        np.savetxt(pts, rng.uniform(0, 1, size=(20, 2)), delimiter=",")
        pairs = [
            (["discrete-check", "--instances", "40", "--seed", "5"],
             "discrete_check_reports.csv"),
            (["dudley", "--points", str(pts), "--samples", "5000",
              "--seed", "5"], "dudley_reports.csv"),
            (["gauss-check", "--fields", "3", "--samples", "5000",
              "--seed", "5", "--format", "json"], "gauss_check_reports.json"),
        ]
        for args, fname in pairs:
            a, b = tmp_path / f"a-{fname}", tmp_path / f"b-{fname}"
            assert cli.main([*args, "--out", str(a)]) == 0
            assert cli.main([*args, "--out", str(b)]) == 0
            with open(a / fname, "rb") as fh:
                first = fh.read()
            with open(b / fname, "rb") as fh:
                second = fh.read()
            assert first == second, fname
        elapsed = time.perf_counter() - start
        report(7, "byte-identical reports across reruns", elapsed, 60)
