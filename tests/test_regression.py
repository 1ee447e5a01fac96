"""Localized least-squares tests.

Oracles: normal equations for the dense solver, the scalar clamped solution
for the 1-D constrained problem, the projection closed form for the linear
localized complexity, the frozen-panel root 2 sigma mean||Pw||/sqrt(n) for
the critical radius, the chi-square(1) median for the single-sample cell, a
long random feasible search as a lower bound for the l1 inner supremum, and
the one-problem Frank-Wolfe loop for every row of the lockstep l1 solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epkit import chaining, workers
from epkit import regression as rg
from epkit.rng import derive_rng, gaussian_design, l1_ball_point
from master_bound import auto_bracket, master_bound_experiment, response

SEED = 2024


@pytest.fixture(scope="module")
def small_model():
    rng = derive_rng(SEED, "model-50x5")
    X = rng.standard_normal((50, 5))
    return rg.RegressionModel(x=X, theta_star=rng.standard_normal(5), sigma=1.0)


class TestModel:
    def test_response_noiseless(self, small_model):
        y = response(small_model, np.zeros(50))
        assert np.allclose(y, small_model.x @ small_model.theta_star)

    def test_response_unit_noise(self):
        model = rg.RegressionModel(x=np.eye(3), theta_star=np.zeros(3), sigma=0.5)
        w = np.array([1.0, 0.0, 0.0])
        assert np.allclose(response(model, w), np.array([0.5, 0.0, 0.0]))

    def test_noise_moment(self, small_model):
        w = derive_rng(1, "noise").standard_normal((200, 50))
        devs = np.array([np.var(response(small_model, wi)
                                - small_model.x @ small_model.theta_star)
                         for wi in w])
        assert np.mean(devs) == pytest.approx(small_model.sigma ** 2, rel=0.05)

    def test_sigma_guard(self):
        with pytest.raises(ValueError):
            rg.RegressionModel(x=np.eye(2), theta_star=np.zeros(2), sigma=0.0)


class TestEmpiricalNorm:
    def test_values(self):
        assert rg.empirical_norm(np.zeros(4)) == 0.0
        assert rg.empirical_norm(np.ones(4)) == 1.0
        assert rg.empirical_norm(np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5))

    def test_empty_guard(self):
        with pytest.raises(ValueError):
            rg.empirical_norm(np.array([]))


class TestLinearSolver:
    def test_exact_fit(self):
        rng = derive_rng(2, "fit")
        X = rng.standard_normal((20, 4))
        y = X @ rng.standard_normal(4)
        res = rg.solve_ls_linear(X, y)
        assert res.objective <= 1e-16 * (1 + np.sum(y ** 2))

    def test_orthonormal_projection(self):
        q, _ = np.linalg.qr(derive_rng(3, "q").standard_normal((30, 5)))
        y = derive_rng(4, "y").standard_normal(30)
        res = rg.solve_ls_linear(q, y)
        assert np.allclose(res.theta, q.T @ y, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = derive_rng(5, "ne")
        X = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        res = rg.solve_ls_linear(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.abs(res.theta - oracle).max() < 1e-8

    def test_certificate(self):
        # the residual is orthogonal to the columns, so every theta pays the
        # objective plus ||X (theta - theta_hat)||^2 (Pythagoras)
        rng = derive_rng(6, "cert")
        X = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        res = rg.solve_ls_linear(X, y)
        assert res.certified and res.gap == 0.0
        assert np.linalg.norm(X.T @ (y - X @ res.theta)) <= 1e-10 * np.linalg.norm(y)
        for theta in res.theta + rng.standard_normal((20, 6)):
            excess = np.sum((X @ (theta - res.theta)) ** 2)
            assert np.sum((y - X @ theta) ** 2) == pytest.approx(
                res.objective + excess, rel=1e-12)

    def test_min_norm_on_rank_deficient(self):
        rng = derive_rng(7, "rankdef")
        base = rng.standard_normal((30, 3))
        X = np.hstack([base, base[:, :1]])  # duplicated column
        y = rng.standard_normal(30)
        res = rg.solve_ls_linear(X, y)
        assert np.allclose(res.theta, np.linalg.pinv(X) @ y, atol=1e-10)
        assert rg.design_rank(X) == 3


class TestL1Solver:
    def test_interior_matches_linear(self):
        rng = derive_rng(8, "interior")
        X = rng.standard_normal((40, 3))
        y = X @ np.array([0.1, -0.2, 0.05]) + 0.01 * rng.standard_normal(40)
        dense = rg.solve_ls_linear(X, y)
        cg = rg.solve_ls_l1(X, y, R=1.0, tol=1e-12, max_iter=50000)
        assert np.abs(dense.theta - cg.theta).max() < 1e-5
        assert cg.certified

    def test_tiny_radius(self):
        rng = derive_rng(9, "tiny")
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        res = rg.solve_ls_l1(X, y, R=1e-9, tol=1e-6, max_iter=5000)
        assert np.abs(res.theta).sum() <= 1e-9 + 1e-10
        assert res.objective == pytest.approx(np.sum(y ** 2), rel=1e-6)

    def test_scalar_clamp(self):
        rng = derive_rng(10, "scalar")
        x = rng.standard_normal((30, 1))
        y = 2.0 * x[:, 0] + 0.1 * rng.standard_normal(30)
        res = rg.solve_ls_l1(x, y, R=1.0, tol=1e-10, max_iter=20000)
        closed = np.clip((x[:, 0] @ y) / (x[:, 0] @ x[:, 0]), -1.0, 1.0)
        assert res.theta[0] == pytest.approx(closed, abs=1e-6)

    def test_ball_constraint_and_certificate(self):
        rng = derive_rng(11, "ball")
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30) * 3
        res = rg.solve_ls_l1(X, y, R=0.7, tol=1e-8, max_iter=20000)
        assert np.abs(res.theta).sum() <= 0.7 + 1e-10
        # Frank-Wolfe weak duality: objective - gap <= f(theta) on the whole
        # ball, whether or not the solve certified (this one does not); small
        # steps from the solution toward the vertices, some of which fall
        # below the objective, test it at the scale of the gap
        probes = derive_rng(11, "ball-probes")
        vertices = 0.7 * np.vstack([np.eye(8), -np.eye(8)])
        thetas = np.vstack([[l1_ball_point(probes, 8, 0.7) for _ in range(100)],
                            vertices, res.theta + 1e-5 * (vertices - res.theta)])
        f = np.sum((y - thetas @ X.T) ** 2, axis=1)
        assert (f >= res.objective - res.gap - 1e-12 * np.sum(y ** 2)).all()

    def test_iteration_cap_flags(self):
        rng = derive_rng(12, "cap")
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30) * 3
        res = rg.solve_ls_l1(X, y, R=0.7, tol=1e-12, max_iter=3)
        assert not res.certified


def scalar_l1_oracle(X, y, R, tol=1e-6, max_iter=5000):
    """The one-problem Frank-Wolfe loop that solve_ls_l1_batch replaced,
    verbatim: every row of a lockstep solve must equal it bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    theta = np.zeros(d)
    x_theta = np.zeros(n)
    f0 = float(np.sum(y ** 2))
    target = tol * f0
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = 2.0 * (X.T @ (x_theta - y))
        j = int(np.argmax(np.abs(grad)))
        vertex_val = -R * np.sign(grad[j]) if grad[j] != 0 else R
        gap = float(grad @ theta - grad[j] * vertex_val)
        if gap <= target:
            break
        d_theta = -theta.copy()
        d_theta[j] += vertex_val
        x_dir = -x_theta + vertex_val * X[:, j]
        denom = 2.0 * float(x_dir @ x_dir)
        if denom <= 0:
            break
        gamma = min(1.0, max(0.0, gap / denom))
        if gamma == 0.0:
            break
        theta = theta + gamma * d_theta
        x_theta = x_theta + gamma * x_dir
    certified = gap <= target
    obj = float(np.sum((y - x_theta) ** 2))
    return rg.ErmResult(theta=theta, objective=obj,
                        gap=float(gap), iterations=it, certified=certified)


def erm_bits(res):
    return (res.theta.tobytes(), res.objective.hex(), res.gap.hex(),
            res.iterations, res.certified)


@st.composite
def l1_stacks(draw):
    """1-6 problems of one shape up to 12 x 12; entries drawn by hypothesis,
    so zero columns, repeated values and tied gradients occur, and one row
    may have y = 0 (a zero gradient, the vertex_val = R branch)."""
    B = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 12))
    entries = st.floats(-4, 4, allow_nan=False, allow_subnormal=False)
    Xs = draw(hnp.arrays(np.float64, (B, n, d), elements=entries))
    ys = draw(hnp.arrays(np.float64, (B, n), elements=entries))
    zero = draw(st.none() | st.integers(0, B - 1))
    if zero is not None:
        ys[zero] = 0.0
    return Xs, ys


@settings(max_examples=60, deadline=None)
@given(l1_stacks(),
       st.sampled_from([1e-12, 1e-4, 1e-1]),
       st.sampled_from([0, 1, 3, 200]),
       st.floats(-9, 1).map(lambda e: 10.0 ** e))
def test_lockstep_l1_rows_match_the_one_problem_loop(stack, tol, max_iter, R):
    Xs, ys = stack
    results = rg.solve_ls_l1_batch(Xs, ys, R, tol=tol, max_iter=max_iter)
    assert len(results) == len(Xs)
    for X, y, res in zip(Xs, ys, results):
        assert erm_bits(res) == erm_bits(scalar_l1_oracle(X, y, R, tol, max_iter))


def test_lockstep_rows_stop_at_their_own_iterations():
    # rows that certify early keep their results while the others run on
    rng = derive_rng(13, "lockstep-stops")
    Xs = np.stack([gaussian_design(rng, 16, 8) for _ in range(4)])
    ys = Xs @ np.array([0.2, -0.1] + [0.0] * 6) + 0.01 * rng.standard_normal((4, 16))
    ys[2] = 0.0
    results = rg.solve_ls_l1_batch(Xs, ys, 1.0, tol=1e-4, max_iter=1500)
    assert all(res.certified for res in results)
    assert len({res.iterations for res in results}) == len(results)
    assert results[2].iterations == 1
    for X, y, res in zip(Xs, ys, results):
        assert erm_bits(res) == erm_bits(scalar_l1_oracle(X, y, 1.0, 1e-4, 1500))


class TestLocalizedComplexity:
    def test_homogeneity_in_delta(self):
        rng = derive_rng(13, "homog")
        X = rng.standard_normal((12, 3))
        a = rg.localized_complexity_mc(X, rg.LinearClass(), 0.5, 4000, SEED)
        b = rg.localized_complexity_mc(X, rg.LinearClass(), 1.0, 4000, SEED)
        assert b.mean == pytest.approx(2 * a.mean, rel=1e-12)

    def test_scalar_half_normal(self):
        est = rg.localized_complexity_mc(np.array([[1.0]]), rg.LinearClass(),
                                         1.0, 200000, SEED)
        assert est.mean == pytest.approx(np.sqrt(2 / np.pi), abs=4 * est.stderr)

    def test_jensen_rank_bound(self):
        rng = derive_rng(14, "jensen")
        X = rng.standard_normal((20, 4))
        r = rg.design_rank(X)
        est = rg.localized_complexity_mc(X, rg.LinearClass(), 0.8, 20000, SEED)
        assert est.mean <= 0.8 * np.sqrt(r) / np.sqrt(20) + 3 * est.stderr

    def test_zero_design(self):
        # the class of a zero design holds only the zero function
        est = rg.localized_complexity_mc(np.zeros((6, 2)), rg.LinearClass(), 0.5,
                                         100, SEED)
        assert est.mean == 0.0

    def test_mc_agrees_with_exact(self):
        # E sup = delta E||P w|| / sqrt(n), with ||P w|| chi-distributed
        rng = derive_rng(15, "agree")
        X = rng.standard_normal((15, 4))
        mc = rg.localized_complexity_mc(X, rg.LinearClass(), 0.6, 20000, SEED)
        exact = 0.6 * chaining.chi_mean(rg.design_rank(X)) / np.sqrt(15)
        assert abs(mc.mean - exact) <= 3 * mc.stderr


class TestL1InnerSup:
    def test_inactive_constraint_closed_form(self):
        rng = derive_rng(16, "inactive")
        X = rng.standard_normal((8, 4))
        w = rng.standard_normal(8)
        R = 1.5
        delta = R * np.linalg.norm(X, axis=0).max() / np.sqrt(8) * 1.01
        val = rg.l1_localized_sup(X, w, R, delta)
        assert val == pytest.approx(R * np.abs(X.T @ w).max() / 8, rel=1e-12)

    def test_zero_noise(self):
        X = derive_rng(17, "zn").standard_normal((6, 3))
        assert rg.l1_localized_sup(X, np.zeros(6), 1.0, 0.5) == 0.0

    def test_single_column_closed_form(self, monkeypatch):
        # d = 1: the supremum is |c| min(R, b/||x||)
        rng = derive_rng(27, "d1")
        x = rng.standard_normal((12, 1))
        w = rng.standard_normal(12)
        R, delta = 2.0, 0.3
        b = delta * np.sqrt(12)
        c = float(x[:, 0] @ w) / 12
        expected = abs(c) * min(R, b / np.linalg.norm(x))
        monkeypatch.setattr(rg, "REL_TOL", 1e-8)
        val = rg.l1_localized_sup(x, w, R, delta)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_dominates_random_search(self, monkeypatch):
        rng = derive_rng(18, "search")
        X = rng.standard_normal((8, 4))
        w = rng.standard_normal(8)
        R, delta = 1.2, 0.25
        monkeypatch.setattr(rg, "REL_TOL", 1e-6)
        val = rg.l1_localized_sup(X, w, R, delta)
        c = X.T @ w / 8
        b = delta * np.sqrt(8)
        search = derive_rng(19, "probe")
        th = search.standard_normal((50000, 4))
        th *= (R * search.uniform(size=50000) ** 0.3
               / np.abs(th).sum(axis=1))[:, None]
        norms = np.linalg.norm(th @ X.T, axis=1)
        th *= np.minimum(1.0, b / np.where(norms > 0, norms, 1.0))[:, None]
        best = np.abs(th @ c).max()
        assert val >= best - 1e-5
        assert val <= best * 1.05 + 1e-9

    def test_l1_mc_inactive_matches_dual_norm(self):
        rng = derive_rng(20, "dualnorm")
        X = rng.standard_normal((10, 3))
        R = 0.8
        delta = R * np.linalg.norm(X, axis=0).max() / np.sqrt(10) * 1.1
        mc = rg.localized_complexity_mc(X, rg.L1BallClass(R=R), delta, 500, SEED)
        w = derive_rng(SEED, "lgc-mc", 10, 3, "l1").standard_normal((500, 10))
        oracle = np.mean(R * np.abs(w @ X).max(axis=1) / 10)
        assert mc.mean == pytest.approx(oracle, rel=1e-9)


def scalar_sup_oracle(X, w, R, delta):
    """The l1_localized_sup loop before its steps ran on Python floats,
    verbatim (module constants read from rg): the kernel must equal it bit
    for bit."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = np.asarray(w, dtype=float)
    n = X.shape[0]
    b = delta * np.sqrt(n)
    c = X.T @ w / n
    cmax = float(np.max(np.abs(c)))
    if cmax == 0.0:
        return 0.0
    j = int(np.argmax(np.abs(c)))
    if R * np.linalg.norm(X[:, j]) <= b * (1 + 1e-12):
        return R * cmax

    d = X.shape[1]
    gram = X.T @ X
    gap_floor = rg.REL_TOL * 0.01 * cmax * R
    b_sq = b * b

    # state: active vertex weights over {+-R e_j}, theta, and q = gram theta
    state = {"w": {(0, 1.0): 0.5, (0, -1.0): 0.5}, "theta": np.zeros(d),
             "q": np.zeros(d)}

    def inner_max(lam, gap_target):
        """max of c.theta - lam (||X theta||^2 - b^2) over the l1 ball by
        pairwise conditional gradient (linearly convergent on the
        cross-polytope), warm-started across calls."""
        weights, theta, q = state["w"], state["theta"], state["q"]
        fw_gap = np.inf
        for _ in range(rg.FW_ITERS):
            grad = c - 2.0 * lam * q
            k = int(np.argmax(np.abs(grad)))
            s_val = R * abs(grad[k])
            s_sign = 1.0 if grad[k] >= 0 else -1.0
            fw_gap = float(s_val - grad @ theta)
            if fw_gap <= gap_target:
                break
            away_key = min(weights, key=lambda v: v[1] * grad[v[0]])
            aj, asgn = away_key
            lin = float(s_val - asgn * R * grad[aj])
            if lin <= 0:
                break
            dir_sq = R * R * (gram[k, k] + gram[aj, aj]
                              - 2.0 * s_sign * asgn * gram[k, aj])
            quad = 2.0 * lam * dir_sq
            step_cap = weights[away_key]
            gamma = step_cap if quad <= 0 else min(step_cap, lin / quad)
            if gamma <= 0:
                break
            theta[k] += gamma * s_sign * R
            theta[aj] -= gamma * asgn * R
            q += gamma * R * (s_sign * gram[:, k] - asgn * gram[:, aj])
            weights[away_key] -= gamma
            if weights[away_key] <= 1e-15:
                del weights[away_key]
            skey = (k, s_sign)
            weights[skey] = weights.get(skey, 0.0) + gamma
        norm_sq = float(theta @ q)
        val = float(c @ theta - lam * (norm_sq - b_sq))
        return np.sqrt(max(norm_sq, 0.0)), val + max(fw_gap, 0.0)

    def feasible_value():
        norm = np.sqrt(max(float(state["theta"] @ state["q"]), 0.0))
        shrink = min(1.0, b / norm) if norm > 0 else 1.0
        return float(c @ state["theta"]) * shrink

    loose = max(gap_floor, 1e-3 * cmax * R)
    lam_lo = 0.0
    lam_hi = max(n * cmax / (2.0 * b_sq), 1e-12)
    for _ in range(80):
        norm, _ = inner_max(lam_hi, loose)
        if norm <= b:
            break
        lam_lo = lam_hi
        lam_hi *= 2.0

    # bracketing phase with loose inner solves, then certified tight solves
    best_ub = np.inf
    best_lb = 0.0
    for outer in range(rg.MAX_OUTER):
        lam = 0.5 * (lam_lo + lam_hi)
        tight = outer >= 8 or (lam_hi - lam_lo) <= 1e-2 * lam_hi
        norm, ub = inner_max(lam, gap_floor if tight else loose)
        if tight:
            best_ub = min(best_ub, ub)
            best_lb = max(best_lb, feasible_value())
            if best_ub - best_lb <= rg.REL_TOL * max(best_ub, 1e-30):
                break
        if norm > b:
            lam_lo = lam
        else:
            lam_hi = lam
    return best_lb


def bits(x):
    return float(x).hex()


@st.composite
def sup_rows(draw):
    """An n x d design (n 2-15, d 1-8) with entries drawn by hypothesis, so
    zero columns and tied gradients occur, optionally with one column copied
    onto another (exact away-vertex ties), a noise row, R and delta."""
    n = draw(st.integers(2, 15))
    d = draw(st.integers(1, 8))
    entries = st.floats(-4, 4, allow_nan=False, allow_subnormal=False)
    X = draw(hnp.arrays(np.float64, (n, d), elements=entries))
    copy = draw(st.none() | st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    if copy is not None:
        X[:, copy[1]] = X[:, copy[0]]
    w = draw(hnp.arrays(np.float64, n, elements=entries))
    R = draw(st.floats(-1, 1).map(lambda e: 10.0 ** e))
    delta = draw(st.floats(-2, 0.5).map(lambda e: 10.0 ** e))
    return X, w, R, delta


# REL_TOL = 0 runs every bisection step and stops inner solves on the sign
# of a rounded Frank-Wolfe gap, so a dot product that rounds differently
# changes the result; at the default tolerance it almost never does
SUP_TOLS = [rg.REL_TOL, 0.0]


@settings(max_examples=60, deadline=None)
@given(sup_rows(), st.sampled_from(SUP_TOLS))
def test_l1_sup_matches_the_numpy_scalar_loop(row, rel_tol):
    X, w, R, delta = row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rg, "REL_TOL", rel_tol)
        assert bits(rg.l1_localized_sup(X, w, R, delta)) == bits(
            scalar_sup_oracle(X, w, R, delta))


def _sup_case(kind):
    rng = derive_rng(31, "sup-oracle", kind)
    X = rng.standard_normal((10, 6))
    w = rng.standard_normal(10)
    if kind == "duplicated-column":
        X[:, 4] = X[:, 1]
    elif kind == "zero-column":
        X[:, 2] = 0.0
    elif kind == "d=1":
        X = X[:, :1]
    elif kind == "zero-noise":
        w = np.zeros(10)
    return X, w


@pytest.mark.parametrize("rel_tol", SUP_TOLS)
@pytest.mark.parametrize("kind", ["random", "duplicated-column", "zero-column",
                                  "d=1", "zero-noise"])
def test_l1_sup_cases_match_the_oracle(kind, rel_tol, monkeypatch):
    monkeypatch.setattr(rg, "REL_TOL", rel_tol)
    X, w = _sup_case(kind)
    reach = np.linalg.norm(X, axis=0).max() / np.sqrt(10)
    # below, near and beyond R reach, where the closed form takes over
    for delta in (0.05, 0.3, 0.6, 0.95 * reach, 1.01 * reach):
        for R in (0.5, 1.0):
            got = rg.l1_localized_sup(X, w, R, R * delta)
            assert bits(got) == bits(scalar_sup_oracle(X, w, R, R * delta)), delta


def test_l1_sup_calls_go_through_the_module_attribute(monkeypatch, in_process):
    # perfbench counts regression.l1_localized_sup calls and reads
    # critical_radius g evaluations as sup calls per draw: both need every
    # caller to look the function up on the module at call time
    real_sup, real_sups = rg.l1_localized_sup, rg.L1BallClass.inner_sups
    sup_calls, panel_rows = [], []

    def counting_sup(*args):
        sup_calls.append(1)
        return real_sup(*args)

    def counting_sups(self, X, w, delta, pmap):
        panel_rows.append(len(w))
        return real_sups(self, X, w, delta, pmap)

    monkeypatch.setattr(rg, "l1_localized_sup", counting_sup)
    X = derive_rng(21, "l1cr").standard_normal((10, 6))
    cls = rg.L1BallClass(R=1.0)
    w = derive_rng(32, "rows").standard_normal((5, 10))
    vals = cls.inner_sups(X, w, 0.5, map)
    assert len(sup_calls) == 5
    assert [bits(v) for v in vals] == [bits(real_sup(X, row, 1.0, 0.5)) for row in w]

    monkeypatch.setattr(rg.L1BallClass, "inner_sups", counting_sups)
    sup_calls.clear()
    model = rg.RegressionModel(x=X, theta_star=np.zeros(6), sigma=0.5)
    rg.critical_radius(model, cls, (0.2, 3.0), n_samples=3, seed=4)
    # eight grid radii plus the bisection steps, three sup calls each
    assert len(panel_rows) > 8 and set(panel_rows) == {3}
    assert len(sup_calls) == 3 * len(panel_rows)


class TestCriticalRadius:
    def test_scalar_panel_root(self):
        model = rg.RegressionModel(x=np.array([[1.0]]), theta_star=np.zeros(1),
                                   sigma=1.0)
        cr = rg.critical_radius(model, rg.LinearClass(), (1e-4, 10.0),
                                n_samples=20000, seed=SEED)
        panel = derive_rng(SEED, "cr-panel", 1, 1).standard_normal((20000, 1))
        root = 2.0 * np.mean(np.abs(panel))
        assert cr.delta_star == pytest.approx(root, rel=2e-3)
        assert cr.delta_star == pytest.approx(2 * np.sqrt(2 / np.pi), rel=0.05)
        assert cr.ratio_monotone
        assert not cr.degenerate
        # the returned radius is certified: the balance holds on the panel
        m = np.mean(np.abs(panel))
        assert m / 1.0 <= cr.delta_star / 2.0 + 1e-15

    def test_sigma_homogeneity(self, small_model):
        X = small_model.x
        m1 = rg.RegressionModel(x=X, theta_star=np.zeros(5), sigma=1.0)
        m2 = rg.RegressionModel(x=X, theta_star=np.zeros(5), sigma=2.0)
        c1 = rg.critical_radius(m1, rg.LinearClass(), (1e-5, 5.0),
                                n_samples=1000, seed=9)
        c2 = rg.critical_radius(m2, rg.LinearClass(), (2e-5, 10.0),
                                n_samples=1000, seed=9)
        assert c2.delta_star == pytest.approx(2 * c1.delta_star, rel=1e-12)

    def test_degenerate_design(self):
        model = rg.RegressionModel(x=np.zeros((3, 2)), theta_star=np.zeros(2),
                                   sigma=1.0)
        cr = rg.critical_radius(model, rg.LinearClass(), (0.01, 1.0),
                                n_samples=100, seed=1)
        assert cr.degenerate
        assert cr.delta_star == 0.01

    def test_invalid_bracket(self, small_model):
        with pytest.raises(rg.BracketError):
            rg.critical_radius(small_model, rg.LinearClass(), (5.0, 50.0),
                               n_samples=200, seed=1)

    def test_no_draws_rejected_before_any(self, small_model, monkeypatch):
        # an empty panel gave a NaN complexity, reported as a bad bracket
        def no_draw(*args):
            raise AssertionError("a noise panel was drawn")

        monkeypatch.setattr(rg, "derive_rng", no_draw)
        with pytest.raises(ValueError, match="n_samples"):
            rg.critical_radius(small_model, rg.L1BallClass(R=1.0), (0.2, 3.0),
                               n_samples=0, seed=1)

    def test_l1_class_ratio_monotone(self):
        rng = derive_rng(21, "l1cr")
        X = rng.standard_normal((10, 6))
        X *= np.sqrt(10) / np.linalg.norm(X, axis=0)
        model = rg.RegressionModel(x=X, theta_star=np.zeros(6), sigma=1.0)
        cr = rg.critical_radius(model, rg.L1BallClass(R=1.0), (0.2, 3.0),
                                n_samples=60, seed=3)
        assert cr.ratio_monotone
        assert 0.2 < cr.delta_star < 3.0


class TestMasterBound:
    def test_huge_threshold(self, small_model):
        freq, bound = master_bound_experiment(
            small_model, t=50.0, trials=50, seed=SEED, delta_star=0.5)
        assert freq.mean == 0.0
        assert bound < 1e-100

    def test_contract_at_critical_radius(self, small_model):
        cr = rg.critical_radius(small_model, rg.LinearClass(),
                                auto_bracket(small_model),
                                n_samples=2000, seed=SEED)
        freq, bound = master_bound_experiment(
            small_model, t=cr.delta_star, trials=500, seed=SEED,
            delta_star=cr.delta_star)
        assert freq.mean <= bound + 3 * freq.stderr

    def test_noiseless_error_is_zero(self, small_model):
        y = response(small_model, np.zeros(50))
        res = rg.solve_ls_linear(small_model.x, y)
        err = rg.empirical_norm(small_model.x @ (res.theta - small_model.theta_star))
        assert err < 1e-10

    def test_trial_error_law(self, small_model):
        # per-trial squared error of dense least squares is exactly
        # sigma^2 ||P w||^2 / n; replay the trial substreams and compare
        basis = rg.col_basis(small_model.x)
        for trial in range(20):
            w = derive_rng(SEED, "mbe-trial", trial).standard_normal(50)
            y = response(small_model, w)
            res = rg.solve_ls_linear(small_model.x, y)
            err = rg.empirical_norm(
                small_model.x @ (res.theta - small_model.theta_star)) ** 2
            oracle = small_model.sigma ** 2 * np.sum((basis.T @ w) ** 2) / 50
            assert err == pytest.approx(oracle, rel=1e-9)

    def test_t_below_radius_rejected(self, small_model):
        with pytest.raises(ValueError):
            master_bound_experiment(small_model, t=0.1, trials=10, seed=1,
                                    delta_star=0.5)


class TestBadEvent:
    def test_huge_radius(self, small_model):
        est = rg.estimate_bad_event_probability(small_model, rg.LinearClass(),
                                                u=100.0, trials=100, seed=SEED)
        assert est.mean == 0.0

    def test_linear_closed_form_oracle(self, small_model):
        u, trials = 0.4, 400
        est = rg.estimate_bad_event_probability(small_model, rg.LinearClass(),
                                                u=u, trials=trials, seed=SEED)
        w = derive_rng(SEED, "bad-event", 50).standard_normal((trials, 50))
        basis = rg.col_basis(small_model.x)
        sups = small_model.sigma * u / np.sqrt(50) * np.linalg.norm(w @ basis,
                                                                    axis=1)
        assert est.mean == pytest.approx(np.mean(sups >= 2 * u ** 2), abs=1e-12)

    def test_small_sigma_never_fires(self, small_model):
        tiny = rg.RegressionModel(x=small_model.x, theta_star=np.zeros(5),
                                  sigma=1e-8)
        est = rg.estimate_bad_event_probability(tiny, rg.LinearClass(), u=0.4,
                                                trials=100, seed=SEED)
        assert est.mean == 0.0

    def test_l1_reach_guard(self):
        X = derive_rng(22, "reach").standard_normal((10, 3))
        X *= np.sqrt(10) / np.linalg.norm(X, axis=0)
        model = rg.RegressionModel(x=X, theta_star=np.zeros(3), sigma=1.0)
        with pytest.raises(rg.HneViolationError):
            rg.estimate_bad_event_probability(model, rg.L1BallClass(R=1.0),
                                              u=2.0, trials=10, seed=1)

    def test_zero_design_guard(self):
        model = rg.RegressionModel(x=np.zeros((4, 2)), theta_star=np.zeros(2),
                                   sigma=1.0)
        with pytest.raises(rg.HneViolationError):
            rg.estimate_bad_event_probability(model, rg.LinearClass(), u=0.5,
                                              trials=10, seed=1)


@pytest.mark.parametrize("draws", [0, 1])
def test_estimates_of_fewer_than_two_draws_solve_nothing(draws, small_model,
                                                         monkeypatch):
    # a standard error needs two draws; no supremum is solved before that
    def no_sup(*args):
        raise AssertionError("an inner supremum was solved")

    monkeypatch.setattr(rg.L1BallClass, "inner_sups", no_sup)
    cls = rg.L1BallClass(R=1.0)
    with pytest.raises(ValueError, match="n_samples"):
        rg.localized_complexity_mc(small_model.x, cls, 0.5, draws, SEED)
    with pytest.raises(ValueError, match="trials"):
        rg.estimate_bad_event_probability(small_model, cls, 0.5, draws, SEED)


@pytest.fixture
def in_process(monkeypatch):
    """Forked maps (the sweep's stacks, the rows of an l1 supremum) run in
    this process, where a patched function sees their calls."""
    monkeypatch.setattr(workers, "available_cpus", lambda: 1)


class TestRateExperiments:
    def test_chi_square_median_control(self):
        rep = rg.linear_rate_experiment([(1, 1)], 1.0, 2000, SEED)
        assert rep.cells[0].normalized == pytest.approx(0.4549, abs=0.05)

    def test_normalized_bounded(self):
        rep = rg.linear_rate_experiment([(32, 4), (64, 4)], 1.0, 100, SEED)
        for cell in rep.cells:
            assert cell.normalized < 2.0
        assert 4 in rep.slopes

    def test_l1_zero_truth_zero_radius(self):
        X = derive_rng(26, "l1zero").standard_normal((20, 5))
        y = np.zeros(20)
        res = rg.solve_ls_l1(X, y, R=1e-9, tol=1e-6, max_iter=5000)
        assert rg.empirical_norm(X @ res.theta) < 1e-8

    def test_l1_dimension_doubling_scaling(self):
        # doubling d at fixed n should raise the median error by at most
        # roughly log(2d)/log(d); the 1.15 slack covers median sampling noise
        a = rg.l1_rate_experiment([(32, 32)], 1.0, 1.0, 150, SEED)
        b = rg.l1_rate_experiment([(32, 64)], 1.0, 1.0, 150, SEED)
        ratio = b.cells[0].median_err / a.cells[0].median_err
        assert ratio <= np.log(64) / np.log(32) * 1.15

    def test_l1_stack_width_cannot_change_cells(self, monkeypatch, in_process):
        grid, trials = [(8, 16), (16, 32)], 7
        args = (grid, 1.0, 1.0, trials, SEED)

        def cells(rep):
            return ([(c.n, c.d, c.rank, c.median_err.hex(), c.normalized.hex())
                     for c in rep.cells],
                    {d: v.hex() for d, v in rep.slopes.items()})

        buffers = []
        batch = rg.solve_ls_l1_batch

        def recording(Xs, ys, *a, **kw):
            buffers.append((Xs.nbytes, Xs[0].nbytes, rg.STACK_BYTES))
            return batch(Xs, ys, *a, **kw)

        monkeypatch.setattr(rg, "solve_ls_l1_batch", recording)
        default = cells(rg.l1_rate_experiment(*args))
        # one design per stack; then widths 7 and 3 (3 + 3 + 1, a remainder)
        for budget in (1, 3 * 8 * 16 * 32):
            monkeypatch.setattr(rg, "STACK_BYTES", budget)
            assert cells(rg.l1_rate_experiment(*args)) == default
        assert all(buf <= max(budget, design) for buf, design, budget in buffers)
        assert len(buffers) == 2 + 2 * trials + (1 + 3)

        # a loop over trials with the one-problem solver, as before stacking
        per_trial = []
        for (n, d) in grid:
            errs, normd, rank_seen = np.empty(trials), np.empty(trials), 0
            for trial in range(trials):
                rng = derive_rng(SEED, "l1-rate", n, d, trial)
                X = gaussian_design(rng, n, d)
                support = rng.choice(d, size=min(3, d), replace=False)
                mags = rng.dirichlet(np.ones(support.size)) * 0.9
                theta_star = np.zeros(d)
                theta_star[support] = mags * rng.choice([-1.0, 1.0], size=support.size)
                y = X @ theta_star + rng.standard_normal(n)
                res = scalar_l1_oracle(X, y, 1.0, tol=1e-4, max_iter=1500)
                rank_seen = max(rank_seen, rg.design_rank(X))
                errs[trial] = rg.empirical_norm(X @ (res.theta - theta_star)) ** 2
                normd[trial] = errs[trial] / (np.log(d) / n)
            per_trial.append((n, d, rank_seen, float(np.median(errs)).hex(),
                              float(np.median(normd)).hex()))
        assert default[0] == per_trial

    def test_l1_rank_reads_stop_at_full_rank(self, monkeypatch, in_process):
        # a cell's rank is at most min(n, d), so once a design reaches it no
        # later design can raise it; a Gaussian design does on the first trial
        grid, calls = [(8, 16), (16, 12)], []
        rank = rg.design_rank

        def counting(X):
            calls.append(X.copy())
            return rank(X)

        def rising(*ranks):
            values = iter(ranks)

            def read(X):
                calls.append(X.copy())
                return next(values)
            return read

        def designs_read(n, d):
            # the reads follow trial order, each a trial's own design
            return all(np.array_equal(X, gaussian_design(
                           derive_rng(SEED, "l1-rate", n, d, trial), n, d))
                       for trial, X in enumerate(calls))

        monkeypatch.setattr(rg, "design_rank", counting)
        rep = rg.l1_rate_experiment(grid, 1.0, 1.0, 5, SEED)
        assert [X.shape for X in calls] == grid
        assert [c.rank for c in rep.cells] == [8, 12]

        # a design read below full rank keeps the reads going, until one
        # reaches min(n, d)
        calls.clear()
        monkeypatch.setattr(rg, "design_rank", rising(3, 5, 8))
        rep = rg.l1_rate_experiment(grid[:1], 1.0, 1.0, 5, SEED)
        assert len(calls) == 3 and rep.cells[0].rank == 8
        assert designs_read(*grid[0])

        # cells cut into stacks, two 8 x 16 designs or one 16 x 12 design
        # each: the first stack reads, and once it reaches full rank the
        # later stacks read nothing
        monkeypatch.setattr(rg, "STACK_BYTES", 2 * 8 * 8 * 16)
        calls.clear()
        monkeypatch.setattr(rg, "design_rank", counting)
        rep = rg.l1_rate_experiment(grid, 1.0, 1.0, 5, SEED)
        assert [X.shape for X in calls] == grid
        assert [c.rank for c in rep.cells] == [8, 12]

        # reads that leave the first stack below full rank go on into the
        # later stacks' trials
        calls.clear()
        monkeypatch.setattr(rg, "design_rank", rising(3, 5, 6, 8))
        rep = rg.l1_rate_experiment(grid[:1], 1.0, 1.0, 5, SEED)
        assert len(calls) == 4 and rep.cells[0].rank == 8
        assert designs_read(*grid[0])

    def test_l1_guard_small_d(self):
        with pytest.raises(ValueError):
            rg.l1_rate_experiment([(8, 1)], 1.0, 1.0, 2, SEED)

    def test_linear_guard_n_lt_d(self):
        with pytest.raises(ValueError):
            rg.linear_rate_experiment([(4, 8)], 1.0, 2, SEED)


@st.composite
def linear_cells(draw):
    """A grid that starts with the cell 1:1, then up to three other distinct
    cells n >= d, as the CLI accepts them."""
    sizes = st.integers(1, 40).flatmap(
        lambda d: st.tuples(st.integers(d, 64), st.just(d))).filter(
            lambda cell: cell != (1, 1))
    return [(1, 1), *draw(st.lists(sizes, max_size=3, unique=True))]


@settings(max_examples=40, deadline=None)
@given(linear_cells(), st.floats(1e-3, 1e3), st.integers(0, 2 ** 32))
def test_linear_critical_radius_is_the_chi_closed_form(grid, sigma, seed):
    rep = rg.linear_rate_experiment(grid, sigma, 2, seed)
    for cell in rep.cells:
        assert cell.delta_star == \
            2.0 * sigma * chaining.chi_mean(cell.rank) / np.sqrt(cell.n)
    assert rep.cells[0].delta_star == 2.0 * sigma * np.sqrt(2 / np.pi)


@st.composite
def power_law_cells(draw):
    """Cells of up to three dimensions, repeated cells allowed, whose median
    errors follow c_d n^a_d exactly in each dimension d."""
    laws = draw(st.dictionaries(st.integers(1, 3),
                                st.tuples(st.floats(1e-3, 1e3), st.floats(-2.0, 2.0)),
                                min_size=1))
    sizes = st.tuples(st.sampled_from([1, 2, 3, 64, 4096]),
                      st.sampled_from(sorted(laws)))
    return [rg.RateCell(n=n, d=d, rank=0, delta_star=float("nan"),
                        median_err=laws[d][0] * n ** laws[d][1], normalized=0.0)
            for n, d in draw(st.lists(sizes, min_size=1, max_size=8))], laws


@settings(max_examples=200, deadline=None)
@given(power_law_cells())
def test_slopes_only_where_a_dimension_has_two_distinct_n(drawn):
    # a RankWarning is a RuntimeWarning, which the test settings raise
    cells, laws = drawn
    slopes = rg._slopes_by_dimension(cells)
    assert set(slopes) == {d for d in laws
                           if len({c.n for c in cells if c.d == d}) >= 2}
    for d, slope in slopes.items():
        assert slope == pytest.approx(laws[d][1], abs=1e-9)


@pytest.mark.parametrize("sweep", ["linear", "l1"])
def test_repeated_cells_give_no_slope(sweep):
    grid = [(8, 2), (8, 2), (16, 4)]
    if sweep == "linear":
        rep = rg.linear_rate_experiment(grid, 1.0, 3, 0)
    else:
        rep = rg.l1_rate_experiment(grid, 1.0, 1.0, 3, 0)
    assert rep.slopes == {}
    a, b = rep.cells[:2]
    assert (a.rank, a.median_err, a.normalized) == (b.rank, b.median_err, b.normalized)
