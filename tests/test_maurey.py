"""Sparsification and hull-net tests; unbiasedness and second moments are
finite sums, so those checks are exact."""

import numpy as np
import pytest

from epkit import maurey
from epkit.rng import derive_rng


def normalized_dict(rng, n, d):
    X = rng.standard_normal((n, d))
    X *= np.sqrt(n) / np.linalg.norm(X, axis=0)
    return maurey.ColumnDictionary(X, normalized=True)


def random_theta(rng, d, R, fill=0.8):
    raw = rng.standard_normal(d)
    return raw / np.abs(raw).sum() * R * fill


class TestColumnDictionary:
    def test_normalization_guard(self):
        X = np.ones((4, 2)) * 10
        with pytest.raises(ValueError):
            maurey.ColumnDictionary(X, normalized=True)

    def test_normalized_from_rescales(self):
        X = derive_rng(1, "dic").standard_normal((6, 3)) * 5
        dic = maurey.ColumnDictionary.normalized_from(X)
        assert (np.linalg.norm(dic.X, axis=0) <= np.sqrt(6) * (1 + 1e-12)).all()

    def test_atom_matrix_layout(self):
        dic = maurey.ColumnDictionary(np.eye(2), normalized=True)
        atoms = dic.atom_matrix(2.0)
        assert atoms.shape == (2, 5)
        assert (atoms[:, 0] == 0).all()
        assert np.allclose(atoms[:, 1], [2 / np.sqrt(2), 0])
        assert np.allclose(atoms[:, 3], -atoms[:, 1])


class TestDistribution:
    def test_point_mass_on_vertex(self):
        dic = normalized_dict(derive_rng(2, "pm"), 10, 4)
        theta = np.zeros(4)
        theta[2] = 1.5
        dist = maurey.maurey_distribution(theta, 1.5, dic)
        assert dist.probs[3] == pytest.approx(1.0)
        v = dic.X @ theta / np.sqrt(10)
        assert np.allclose(dist.expectation(), v)

    def test_zero_theta(self):
        dic = normalized_dict(derive_rng(3, "z"), 8, 3)
        dist = maurey.maurey_distribution(np.zeros(3), 1.0, dic)
        assert dist.probs[0] == pytest.approx(1.0)
        assert np.allclose(dist.expectation(), 0.0)

    def test_unbiased_sweep(self):
        rng = derive_rng(4, "unbias")
        for _ in range(50):
            n, d = int(rng.integers(5, 30)), int(rng.integers(2, 10))
            dic = normalized_dict(rng, n, d)
            R = float(rng.uniform(0.5, 2.0))
            theta = random_theta(rng, d, R, fill=float(rng.uniform(0, 1)))
            dist = maurey.maurey_distribution(theta, R, dic)
            v = dic.X @ theta / np.sqrt(n)
            assert np.abs(dist.expectation() - v).max() < 1e-12

    def test_rejects_oversized_theta(self):
        dic = normalized_dict(derive_rng(5, "big"), 6, 2)
        with pytest.raises(ValueError):
            maurey.maurey_distribution(np.array([1.0, 0.5]), 1.0, dic)


class TestSecondMoment:
    def test_zero(self):
        dic = normalized_dict(derive_rng(6, "sm0"), 6, 2)
        assert maurey.maurey_second_moment(np.zeros(2), 1.0, dic) == 0.0

    def test_tight_at_full_column(self):
        X = np.zeros((4, 2))
        X[:, 0] = 1.0  # norm exactly sqrt(4)
        X[0, 1] = 1.0
        dic = maurey.ColumnDictionary(X, normalized=True)
        theta = np.array([2.0, 0.0])
        val = maurey.maurey_second_moment(theta, 2.0, dic)
        assert val == pytest.approx(4.0)  # R^2, the bound is tight

    def test_bounded_sweep(self):
        rng = derive_rng(7, "smsweep")
        for _ in range(50):
            n, d = int(rng.integers(5, 30)), int(rng.integers(2, 10))
            dic = normalized_dict(rng, n, d)
            R = float(rng.uniform(0.5, 2.0))
            theta = random_theta(rng, d, R, fill=float(rng.uniform(0, 1)))
            val = maurey.maurey_second_moment(theta, R, dic)
            assert val <= R * np.abs(theta).sum() + 1e-12
            assert val <= R ** 2 + 1e-12


class TestAverageError:
    def test_point_mass_zero_error(self):
        dic = normalized_dict(derive_rng(8, "pm0"), 8, 3)
        theta = np.zeros(3)
        theta[1] = 1.0
        res = maurey.maurey_average_error(theta, 1.0, dic, k=5, n_mc=50, seed=1)
        assert res.estimate.mean == pytest.approx(0.0, abs=1e-20)
        assert res.closed_form == pytest.approx(0.0, abs=1e-14)

    def test_mc_matches_closed_form(self):
        rng = derive_rng(9, "mc")
        dic = normalized_dict(rng, 15, 5)
        theta = random_theta(rng, 5, 1.2)
        res = maurey.maurey_average_error(theta, 1.2, dic, k=8, n_mc=4000, seed=2)
        assert abs(res.estimate.mean - res.closed_form) <= 3 * res.estimate.stderr
        assert res.estimate.mean <= 1.2 ** 2 / 8 + 3 * res.estimate.stderr

    def test_one_over_k_scaling(self):
        rng = derive_rng(10, "k")
        dic = normalized_dict(rng, 12, 4)
        theta = random_theta(rng, 4, 1.0)
        r1 = maurey.maurey_average_error(theta, 1.0, dic, k=4, n_mc=10, seed=3)
        r2 = maurey.maurey_average_error(theta, 1.0, dic, k=8, n_mc=10, seed=3)
        assert r1.closed_form == pytest.approx(2 * r2.closed_form, rel=1e-12)


class TestSparsify:
    def test_k_formula(self):
        dic = normalized_dict(derive_rng(11, "kf"), 6, 2)
        res = maurey.maurey_sparsify(np.array([0.2, -0.1]), 1.0, dic, eps=0.5,
                                     seed=1)
        assert res.k == 4

    def test_point_mass_first_attempt(self):
        dic = normalized_dict(derive_rng(12, "pm1"), 8, 3)
        theta = np.zeros(3)
        theta[0] = 1.0
        res = maurey.maurey_sparsify(theta, 1.0, dic, eps=0.4, seed=2)
        assert res.success and res.attempts == 1
        assert res.error < 1e-12

    def test_random_sweep(self):
        rng = derive_rng(13, "sp-sweep")
        for idx in range(50):
            n, d = int(rng.integers(5, 51)), int(rng.integers(2, 21))
            dic = normalized_dict(rng, n, d)
            R = float(rng.uniform(0.5, 1.5))
            theta = random_theta(rng, d, R, fill=float(rng.uniform(0, 1)))
            eps = float(rng.uniform(0.3, 0.8)) * R
            res = maurey.maurey_sparsify(theta, R, dic, eps, seed=idx)
            assert res.success and res.attempts <= 64
            v = dic.X @ theta / np.sqrt(n)
            assert np.linalg.norm(res.combination.value - v) <= eps
            recomputed = res.combination.recompute(dic, R)
            assert np.abs(recomputed - res.combination.value).max() < 1e-12


class TestSampleSize:
    def test_integer_boundary_is_kept(self):
        # R^2 / eps^2 whenever it does not overflow: (R / eps)^2 rounds
        # differently and would give 49 at eps = 1/7 and 6 at eps = 1/sqrt(5)
        assert maurey.sample_size(1.0, 0.1) == 100
        assert maurey.sample_size(1.0, 1 / 7) == 50
        assert maurey.sample_size(1.0, 1 / np.sqrt(5)) == 5

    def test_overflowing_squares_with_a_small_ratio(self):
        # eps^2, both squares, or R^2 overflows; R / eps does not
        assert maurey.sample_size(1.0, 1e155) == 1
        assert maurey.sample_size(1e200, 1e200) == 1
        assert maurey.sample_size(3e154, 1e154) == 9

    @pytest.mark.parametrize("R, eps", [(1e200, 1.0), (1.0, 1e-200), (1e200, 1e-200)])
    def test_ratio_beyond_floats_exceeds_the_budget(self, R, eps):
        # the ratio overflows, or eps^2 underflows to 0
        with pytest.raises(maurey.BudgetError, match=r"ceil\(inf\)"):
            maurey.sample_size(R, eps)


class TestNetBound:
    def test_reference_values(self):
        assert maurey.l1_hull_net_bound(3, 1.0, 0.5) == 2401
        assert maurey.l1_hull_net_bound(3, 0.0, 0.5) == 1
        assert maurey.l1_hull_net_bound(1, 1.0, 1.0) == 3

    def test_big_counts_are_exact_ints(self):
        val = maurey.l1_hull_net_bound(100, 4.0, 0.1)
        assert val == 201 ** 1600


class TestNetConstruct:
    def test_single_sample_net(self):
        dic = normalized_dict(derive_rng(14, "net1"), 6, 1)
        net = maurey.l1_hull_net_construct(dic, 1.0, 1.0, n_validation=50,
                                           seed=1)
        assert net.k == 1
        assert len(net.net) <= 3
        assert net.max_net_distance < 1e-8

    def test_all_members_are_atom_averages(self):
        dic = normalized_dict(derive_rng(15, "net2"), 5, 2)
        net = maurey.l1_hull_net_construct(dic, 1.0, 1.0, n_validation=0, seed=1)
        atoms = dic.atom_matrix(1.0)
        for member in net.net:
            dists = np.abs(atoms - member[:, None]).max(axis=0)
            assert dists.min() < 1e-9  # k = 1: members are atoms themselves

    def test_coverage_d2(self):
        dic = normalized_dict(derive_rng(16, "net3"), 8, 2)
        net = maurey.l1_hull_net_construct(dic, 1.0, 1.0, n_validation=500,
                                           seed=2)
        assert net.max_error <= 1.0
        assert net.max_net_distance < 1e-8
        assert len(net.net) <= net.bound

    def test_budget_guard(self):
        dic = normalized_dict(derive_rng(17, "net4"), 5, 50)
        with pytest.raises(maurey.BudgetError):
            maurey.l1_hull_net_construct(dic, 2.0, 0.1)
