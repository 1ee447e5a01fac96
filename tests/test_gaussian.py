"""Gaussian Monte Carlo check tests.

Closed-form oracles used here: characteristic function E cos(tX) = e^{-t^2/2}
for the sine field variance, the exact linear cumulant lam^2/2, the normal
tail 2(1 - Phi(1)), E max(Z1, Z2) = 1/sqrt(pi), and affine-invariance of the
symmetric bump convolution.
"""

import numpy as np
import pytest
from scipy.stats import norm

from epkit import fields, gaussian

SEED = 2024
N = 100000


class TestMcEstimate:
    def test_ci_invariant(self):
        est = gaussian.McEstimate.from_samples(np.arange(100, dtype=float))
        lo, hi = est.ci95
        assert lo == pytest.approx(est.mean - 1.96 * est.stderr)
        assert hi == pytest.approx(est.mean + 1.96 * est.stderr)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            gaussian.McEstimate.from_samples([1.0])


class TestSampler:
    def test_deterministic(self):
        a = gaussian.sample_std_gaussian(3, 1000, 42)
        b = gaussian.sample_std_gaussian(3, 1000, 42)
        assert (a == b).all()

    def test_seed_range(self):
        from epkit.rng import derive_rng

        neg = derive_rng(-5, "x").standard_normal(4)
        pos = derive_rng(5, "x").standard_normal(4)
        big = derive_rng(2 ** 63 + 17, "x").standard_normal(4)
        assert not np.array_equal(neg, pos)
        assert not np.array_equal(big, pos)

    def test_marginal_mean(self):
        x = gaussian.sample_std_gaussian(1, 10 ** 6, SEED)
        assert abs(x.mean()) <= 5.0 / np.sqrt(10 ** 6)

    def test_marginal_variance(self):
        x = gaussian.sample_std_gaussian(3, 10 ** 6, SEED)
        assert np.abs(x.var(axis=0) - 1.0).max() <= 0.01


class TestFieldValidation:
    def test_gradient_check_passes(self):
        f = fields.sine_field(1.0, 1.3, 0.5, 0.7, 0.2)
        f.validate_gradient()

    def test_gradient_check_catches_errors(self):
        f = fields.sine_field(1.0, 1.3, 0.5, 0.7, 0.2)
        bad = gaussian.ScalarField(dim=1, eval=f.eval,
                                   grad=lambda x: 1.5 * f.grad(x), name="bad")
        with pytest.raises(gaussian.OracleValidationError):
            bad.validate_gradient()

    def test_lipschitz_check_catches_errors(self):
        f = fields.norm_field([0.0, 0.0])
        bad = gaussian.ScalarField(dim=2, eval=f.eval, lipschitz=0.5, name="bad")
        with pytest.raises(gaussian.OracleValidationError):
            bad.validate_lipschitz()


class TestPoincare:
    def test_bit_identical_reruns(self):
        f = fields.sine_field(0.8, 1.1, 0.3, 0.9, 0.1)
        a = gaussian.poincare_gap(f, 5000, 7)
        b = gaussian.poincare_gap(f, 5000, 7)
        assert a[0].mean == b[0].mean and a[0].stderr == b[0].stderr
        assert a[1].mean == b[1].mean

    def test_gradient_validated_before_check(self):
        f = fields.sine_field(1.0, 1.0, 0.0, 1.0, 0.0)
        bad = gaussian.ScalarField(dim=1, eval=f.eval,
                                   grad=lambda x: 2.0 * f.grad(x), name="wrong")
        with pytest.raises(gaussian.OracleValidationError):
            gaussian.poincare_gap(bad, 1000, 7)

    def test_linear_saturates(self):
        lhs, rhs = gaussian.poincare_gap(fields.linear_field([1.0]), N, SEED)
        assert rhs.mean == pytest.approx(1.0)
        assert rhs.stderr == 0.0
        assert abs(lhs.mean - rhs.mean) <= 3 * (lhs.stderr + rhs.stderr)

    def test_sine_oracle(self):
        # Var sin X = (1 - e^-2)/2 and E cos^2 X = (1 + e^-2)/2
        f = fields.sine_field(1.0, 1.0, 0.0, 1.0, 0.0)
        lhs, rhs = gaussian.poincare_gap(f, 2 * N, SEED)
        assert lhs.mean == pytest.approx((1 - np.exp(-2)) / 2, abs=4 * lhs.stderr)
        assert rhs.mean == pytest.approx((1 + np.exp(-2)) / 2, abs=4 * rhs.stderr)
        assert gaussian.three_sigma_margin(lhs, rhs) > 0

    def test_constant(self):
        f = gaussian.ScalarField(
            dim=1, eval=lambda x: np.full(len(np.atleast_2d(x)), 2.0),
            grad=lambda x: np.zeros((len(np.atleast_2d(x)), 1)), name="const")
        lhs, rhs = gaussian.poincare_gap(f, 1000, SEED)
        assert lhs.mean == 0.0 and rhs.mean == 0.0

    def test_rejects_multidim(self):
        with pytest.raises(ValueError):
            gaussian.poincare_gap(fields.linear_field([1.0, 1.0]), 100, SEED)


class TestLsi:
    def test_constant_zero(self):
        f = gaussian.ScalarField(
            dim=2, eval=lambda x: np.full(len(np.atleast_2d(x)), 3.0),
            grad=lambda x: np.zeros_like(np.atleast_2d(x)), name="const")
        lhs, rhs = gaussian.gaussian_lsi_gap(f, 1000, SEED)
        assert lhs.mean == 0.0
        assert rhs.mean == 0.0

    def test_identity_below_two(self):
        # rhs = 2 E (f')^2 = 2 exactly; lhs estimates Ent(X^2) = psi(3/2)+log 2
        lhs, rhs = gaussian.gaussian_lsi_gap(fields.linear_field([1.0]), N, SEED)
        assert rhs.mean == pytest.approx(2.0)
        assert rhs.stderr == 0.0
        assert lhs.mean == pytest.approx(0.729637, abs=5 * lhs.stderr)
        assert lhs.mean < 2.0

    def test_cosine_ridge_dim2(self):
        f = fields.sine_ridge_field(1.0, [1.0, 0.0], 0.0)
        lhs, rhs = gaussian.gaussian_lsi_gap(f, N, SEED)
        assert gaussian.three_sigma_margin(lhs, rhs) > 0


class TestHerbst:
    def test_linear_exact_cgf(self):
        f = fields.linear_field([1.0, 0.0])
        lhs, rhs = gaussian.herbst_cgf_gap(f, 0.5, N, SEED)
        assert rhs == pytest.approx(0.125)
        assert abs(lhs.mean - 0.125) <= 3 * lhs.stderr

    def test_zero_lambda(self):
        lhs, rhs = gaussian.herbst_cgf_gap(fields.linear_field([1.0]), 0.0, 1000, SEED)
        assert lhs.mean == 0.0
        assert rhs == 0.0

    def test_norm_field_dim3(self):
        f = fields.norm_field([0.0, 0.0, 0.0])
        lhs, rhs = gaussian.herbst_cgf_gap(f, 1.0, N, SEED)
        assert rhs == pytest.approx(0.5)
        assert lhs.mean <= 0.5 + 3 * lhs.stderr

    def test_overflow_reported(self):
        f = fields.linear_field([1.0])
        with pytest.raises(gaussian.IntegrabilityError):
            gaussian.herbst_cgf_gap(f, 500.0, 10000, SEED)


class TestLipschitzTail:
    def test_coordinate_oracle(self):
        f = fields.linear_field([1.0])
        tail, bound = gaussian.lipschitz_tail_gap(f, 1.0, 2 * N, SEED)
        assert bound == pytest.approx(2 * np.exp(-0.5))
        assert tail.mean == pytest.approx(2 * (1 - norm.cdf(1.0)), abs=0.01)

    def test_far_tail(self):
        f = fields.linear_field([1.0])
        tail, bound = gaussian.lipschitz_tail_gap(f, 10.0, 10000, SEED)
        assert tail.mean == 0.0
        assert bound == pytest.approx(2 * np.exp(-50.0))

    def test_max_field(self):
        f = fields.max_field([0.0, 0.0])
        tail, bound = gaussian.lipschitz_tail_gap(f, 1.0, N, SEED)
        assert tail.mean <= bound + 3 * tail.stderr


class TestFiniteMax:
    def test_single_variable(self):
        emax, bound = gaussian.finite_max_bound_check(1, [1.0], 50000, SEED)
        assert bound == 0.0
        assert abs(emax.mean) <= 3 * emax.stderr

    def test_two_variables_oracle(self):
        emax, bound = gaussian.finite_max_bound_check(2, [1.0, 1.0], 2 * N, SEED)
        assert emax.mean == pytest.approx(1 / np.sqrt(np.pi), abs=4 * emax.stderr)
        assert bound == pytest.approx(np.sqrt(2 * np.log(2)))

    def test_sixteen_variables(self):
        emax, bound = gaussian.finite_max_bound_check(16, np.ones(16), N, SEED)
        assert bound == pytest.approx(np.sqrt(2 * np.log(16)))
        assert emax.mean <= bound + 3 * emax.stderr

    def test_scales_must_fit_budget(self):
        with pytest.raises(ValueError):
            gaussian.finite_max_bound_check(2, [1.0, 2.0], 100, SEED, budget=1.0)


class TestMollify:
    GRID = np.linspace(-2.0, 2.0, 81)

    def test_affine_invariance(self):
        _, sup_err = gaussian.mollify_1d(lambda x: 2.0 * x - 1.0, 0.1, self.GRID)
        assert sup_err <= 1e-8

    def test_abs_attains_kernel_moment(self):
        _, sup_err = gaussian.mollify_1d(np.abs, 0.1, self.GRID)
        c_rho = gaussian.bump_first_moment()
        assert sup_err <= 1.0 * c_rho * 0.1 + 1e-6
        # the worst error sits at the kink and equals the kernel moment scale
        assert sup_err == pytest.approx(c_rho * 0.1, rel=1e-9)
        assert 0.2 < c_rho < 0.5

    def test_linear_error_in_eps(self):
        _, e1 = gaussian.mollify_1d(np.abs, 0.1, self.GRID)
        _, e2 = gaussian.mollify_1d(np.abs, 0.05, self.GRID)
        assert e2 / e1 == pytest.approx(0.5, rel=0.1)

    def test_kernel_moment_quadrature_stable(self):
        assert gaussian.bump_first_moment(201) == pytest.approx(
            gaussian.bump_first_moment(401), abs=1e-9)

    def test_span_guard(self):
        with pytest.raises(ValueError):
            gaussian.mollify_1d(np.abs, 5.0, self.GRID)
