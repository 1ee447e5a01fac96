"""Exact product-space inequality tests; every expectation is a full
enumeration, so tolerances are float rounding only."""

import json

import numpy as np
import pytest

from epkit import discrete
from epkit.rng import derive_rng

TOL = 1e-10


@pytest.fixture
def bits3():
    return discrete.FiniteProductSpace.uniform_bits(3)


class TestFiniteProductSpace:
    def test_weight_validation(self):
        with pytest.raises(discrete.SpaceValidationError):
            discrete.FiniteProductSpace([[0.0, 1.0]], [[0.6, 0.6]])

    def test_budget(self):
        with pytest.raises(discrete.SpaceValidationError):
            discrete.FiniteProductSpace.uniform_bits(13)  # 8192 outcomes

    def test_expectation_constant(self, bits3):
        vals = np.full(bits3.n_outcomes, 3.25)
        assert bits3.expectation(vals) == pytest.approx(3.25, abs=1e-14)

    def test_expectation_symmetry(self):
        sp = discrete.FiniteProductSpace.rademacher(1)
        assert sp.expectation(sp.tabulate(lambda x: x[0])) == 0.0

    def test_product_expectation(self):
        sp = discrete.FiniteProductSpace.uniform_bits(2)
        f = sp.tabulate(lambda x: x[0] * x[1])
        assert sp.expectation(f) == pytest.approx(0.25, abs=1e-14)


class TestCondExp:
    def test_single_coordinate_reduces_to_mean(self):
        sp = discrete.FiniteProductSpace([[0.0, 2.0]], [[0.25, 0.75]])
        f = sp.tabulate(lambda x: x[0] ** 2)
        ce = discrete.cond_exp_except_coord(0, f, sp)
        assert np.allclose(ce, sp.expectation(f))

    def test_linearity(self):
        sp = discrete.FiniteProductSpace.uniform_bits(2)
        f = sp.tabulate(lambda x: x[0] + x[1])
        ce = discrete.cond_exp_except_coord(0, f, sp)
        expected = sp.tabulate(lambda x: 0.5 + x[1])
        assert np.allclose(ce, expected)

    def test_tower_property(self, bits3):
        rng = derive_rng(1, "tower")
        for _ in range(20):
            f = rng.uniform(-2, 2, size=bits3.n_outcomes)
            for i in range(3):
                ce = discrete.cond_exp_except_coord(i, f, bits3)
                assert abs(bits3.expectation(ce) - bits3.expectation(f)) < 1e-12

    def test_idempotence(self, bits3):
        rng = derive_rng(2, "idem")
        f = rng.uniform(-1, 1, size=bits3.n_outcomes)
        once = discrete.cond_exp_except_coord(2, f, bits3)
        twice = discrete.cond_exp_except_coord(2, once, bits3)
        assert np.allclose(once, twice, atol=1e-14)

    def test_constant_in_coordinate(self, bits3):
        rng = derive_rng(3, "const-coord")
        f = rng.uniform(-1, 1, size=bits3.n_outcomes)
        ce = discrete.cond_exp_except_coord(1, f, bits3).reshape(bits3.sizes)
        assert np.allclose(ce[:, 0, :], ce[:, 1, :])


class TestEfronStein:
    def test_single_coordinate_equality(self):
        sp = discrete.FiniteProductSpace([[0.0, 1.0, 2.0]], [[0.2, 0.3, 0.5]])
        f = sp.tabulate(lambda x: np.sin(x[0]))
        lhs, rhs = discrete.efron_stein_gap(f, sp)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_additive_equality(self, bits3):
        f = bits3.tabulate(lambda x: x.sum())
        lhs, rhs = discrete.efron_stein_gap(f, bits3)
        assert lhs == pytest.approx(3 * 0.25, abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_random_sweep(self, bits3):
        rng = derive_rng(4, "es-sweep")
        for _ in range(50):
            f = rng.uniform(-3, 3, size=bits3.n_outcomes)
            lhs, rhs = discrete.efron_stein_gap(f, bits3)
            assert lhs <= rhs + TOL


class TestEntropyFunctional:
    def test_constant(self, bits3):
        assert discrete.entropy_functional(
            np.full(bits3.n_outcomes, 2.5), bits3) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_half(self, bits3):
        f = bits3.tabulate(lambda x: 1.0 if x[0] > 0.5 else 0.0)
        assert discrete.entropy_functional(f, bits3) == pytest.approx(
            -0.5 * np.log(0.5), abs=1e-14)

    def test_zero_function(self, bits3):
        assert discrete.entropy_functional(np.zeros(bits3.n_outcomes), bits3) == 0.0

    def test_rejects_negative(self, bits3):
        vals = np.zeros(bits3.n_outcomes)
        vals[0] = -0.1
        with pytest.raises(ValueError):
            discrete.entropy_functional(vals, bits3)

    def test_nonnegative_and_zero_iff_constant(self):
        rng = derive_rng(5, "ent-nonneg")
        for _ in range(50):
            sp = discrete.random_binary_space(rng, 3)
            f = rng.uniform(0.0, 3.0, size=sp.n_outcomes)
            ent = discrete.entropy_functional(f, sp)
            assert ent >= -TOL
            if ent < 1e-13:
                assert np.ptp(f) < 1e-6  # strictly positive weights

    def test_equals_zero_for_constant_on_support(self):
        sp = discrete.random_binary_space(derive_rng(6, "ent0"), 2)
        assert discrete.entropy_functional(
            np.full(sp.n_outcomes, 0.7), sp) == pytest.approx(0.0, abs=1e-14)


class TestEntropyDuality:
    def test_equality_at_witness(self, bits3):
        rng = derive_rng(7, "dual-eq")
        y = rng.uniform(0.2, 2.0, size=bits3.n_outcomes)
        ent, dual = discrete.entropy_duality_check(y, y, bits3)
        assert abs(ent - dual) < TOL

    def test_unit_witness_gives_zero(self, bits3):
        y = derive_rng(8, "dual-one").uniform(0.0, 2.0, size=bits3.n_outcomes)
        ent, dual = discrete.entropy_duality_check(
            y, np.ones(bits3.n_outcomes), bits3)
        assert dual == pytest.approx(0.0, abs=1e-14)
        assert dual <= ent + TOL

    def test_random_pairs(self, bits3):
        rng = derive_rng(9, "dual-sweep")
        for _ in range(50):
            y = rng.uniform(0.0, 2.0, size=bits3.n_outcomes)
            t = rng.uniform(0.05, 3.0, size=bits3.n_outcomes)
            ent, dual = discrete.entropy_duality_check(y, t, bits3)
            assert dual <= ent + TOL

    def test_rejects_nonpositive_witness(self, bits3):
        y = np.ones(bits3.n_outcomes)
        t = np.ones(bits3.n_outcomes)
        t[0] = 0.0
        with pytest.raises(ValueError):
            discrete.entropy_duality_check(y, t, bits3)


class TestTensorization:
    def test_constant(self, bits3):
        lhs, rhs = discrete.tensorization_gap(np.full(bits3.n_outcomes, 1.3), bits3)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert lhs <= rhs + TOL

    def test_single_coordinate_equality(self):
        sp = discrete.FiniteProductSpace([[0.0, 1.0, 3.0]], [[0.5, 0.25, 0.25]])
        y = sp.tabulate(lambda x: x[0] + 0.5)
        lhs, rhs = discrete.tensorization_gap(y, sp)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_sweep(self, bits3):
        rng = derive_rng(10, "tensor-sweep")
        for _ in range(50):
            y = rng.uniform(0.0, 2.0, size=bits3.n_outcomes)
            lhs, rhs = discrete.tensorization_gap(y, bits3)
            assert lhs <= rhs + TOL


class TestHanInequality:
    def test_product_equality(self):
        p = discrete.JointPmf.from_product([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        lhs, rhs = discrete.han_inequality_gap(p)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_point_mass(self):
        table = np.zeros((2, 2))
        table[0, 0] = 1.0
        lhs, rhs = discrete.han_inequality_gap(discrete.JointPmf(table))
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_rejects_single_coordinate(self):
        with pytest.raises(ValueError):
            discrete.han_inequality_gap(discrete.JointPmf(np.array([0.5, 0.5])))

    def test_random_sweep(self):
        rng = derive_rng(11, "han-sweep")
        for _ in range(50):
            p = discrete.random_joint_pmf(rng, (2, 2, 2))
            lhs, rhs = discrete.han_inequality_gap(p)
            assert lhs <= rhs + TOL


class TestBernoulliLsi:
    def test_constant(self):
        sp = discrete.FiniteProductSpace.rademacher(2)
        lhs, rhs = discrete.bernoulli_lsi_gap(np.full(sp.n_outcomes, 2.0), sp)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_identity_function(self):
        sp = discrete.FiniteProductSpace.rademacher(1)
        f = sp.tabulate(lambda x: x[0])
        lhs, rhs = discrete.bernoulli_lsi_gap(f, sp)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(2.0, abs=1e-13)

    def test_random_sweep(self):
        sp = discrete.FiniteProductSpace.rademacher(3)
        rng = derive_rng(12, "blsi-sweep")
        for _ in range(50):
            f = rng.uniform(-2, 2, size=sp.n_outcomes)
            lhs, rhs = discrete.bernoulli_lsi_gap(f, sp)
            assert lhs <= rhs + TOL

    def test_rejects_non_rademacher(self):
        sp = discrete.FiniteProductSpace.uniform_bits(2)
        with pytest.raises(discrete.SpaceValidationError):
            discrete.bernoulli_lsi_gap(np.ones(sp.n_outcomes), sp)

    def test_rejects_biased_weights(self):
        sp = discrete.FiniteProductSpace([[-1.0, 1.0]], [[0.3, 0.7]])
        with pytest.raises(discrete.SpaceValidationError):
            discrete.bernoulli_lsi_gap(np.ones(2), sp)


class TestInstanceDump:
    def test_json_roundtrip(self):
        doc = discrete.random_instance(derive_rng(21, "dump"))
        assert doc["family"] == "instance"
        back = json.loads(json.dumps(doc, sort_keys=True))
        assert back == doc
        assert discrete.replay_instance(back) == discrete.replay_instance(doc)

    def test_replay_recomputes_gaps(self):
        rng = derive_rng(20, "replay")
        sp = discrete.random_binary_space(rng, 2)
        f = rng.uniform(-1, 1, size=sp.n_outcomes)
        t = rng.uniform(0.1, 2.0, size=sp.n_outcomes)
        joint = discrete.random_joint_pmf(rng, (2, 2))
        g = rng.uniform(-1, 1, size=4)
        doc = {"family": "instance", "supports": [list(s) for s in sp.supports],
               "weights": [list(w) for w in sp.weights],
               "values": list(map(float, f)), "aux_values": list(map(float, t)),
               "joint": list(map(float, joint.table.reshape(-1))),
               "shape": [2, 2], "rademacher_values": list(map(float, g))}
        gaps = discrete.replay_instance(json.loads(json.dumps(doc)))
        lhs, rhs = discrete.efron_stein_gap(f, sp)
        assert gaps["efron_stein"] == (lhs, rhs)
        assert set(gaps) == {"efron_stein", "duality", "duality_eq",
                             "tensorization", "han", "bernoulli_lsi"}
        for lhs, rhs in gaps.values():
            assert lhs <= rhs + TOL

    @pytest.mark.parametrize("key", ["aux_values", "joint", "shape",
                                     "rademacher_values"])
    def test_replay_names_a_missing_key(self, key):
        doc = discrete.random_instance(derive_rng(22, "dump"))
        del doc[key]
        with pytest.raises(KeyError, match=key):
            discrete.replay_instance(doc)
