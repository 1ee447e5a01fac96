"""Exact verification of the variance/entropy tensorization chain on finite
product spaces.

A space stores its supports, weights and sizes and the flat table of outcome
probabilities; every expectation is an exact sum over that table, so the
inequality checks (variance decomposition, entropy subadditivity,
leave-one-out entropy, duality, two-point log-Sobolev) are exact up to float
rounding.  Natural logarithms throughout; 0 log 0 := 0 and Ent of an
a.e.-zero function is 0 by continuity.

Functions on a space are represented by their value table in the space's
lexicographic outcome order (coordinate 0 slowest), obtained from a callable
via ``FiniteProductSpace.tabulate``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

OUTCOME_BUDGET = 4096
WEIGHT_TOL = 1e-12


class SpaceValidationError(ValueError):
    pass


def _outer_product(vectors) -> np.ndarray:
    """Table of products v0[j0] * v1[j1] * ..., multiplied left to right."""
    return functools.reduce(np.multiply.outer, vectors)


class FiniteProductSpace:
    """Product of per-coordinate finite-support distributions."""

    def __init__(self, supports, weights):
        self.supports = [np.asarray(s, dtype=float) for s in supports]
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        if len(self.supports) != len(self.weights):
            raise SpaceValidationError("supports/weights length mismatch")
        self.n = len(self.supports)
        if self.n == 0:
            raise SpaceValidationError("need at least one coordinate")
        for sup, w in zip(self.supports, self.weights):
            if len(sup) != len(w) or len(sup) == 0:
                raise SpaceValidationError("support/weight size mismatch")
            if w.min() < 0:
                raise SpaceValidationError("negative weight")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise SpaceValidationError("weights must sum to 1 within 1e-12")
        self.sizes = tuple(len(s) for s in self.supports)
        self.n_outcomes = math.prod(self.sizes)
        if self.n_outcomes > OUTCOME_BUDGET:
            raise SpaceValidationError(
                f"outcome count {self.n_outcomes} exceeds budget {OUTCOME_BUDGET}")
        self.probs = _outer_product(self.weights).reshape(-1)

    @classmethod
    def uniform_bits(cls, n):
        """Uniform product on {0,1}^n."""
        return cls([[0.0, 1.0]] * n, [[0.5, 0.5]] * n)

    @classmethod
    def rademacher(cls, n):
        """Uniform product on {-1,+1}^n."""
        return cls([[-1.0, 1.0]] * n, [[0.5, 0.5]] * n)

    def tabulate(self, f) -> np.ndarray:
        """Value table of a callable on full outcome tuples."""
        outcomes = np.asarray(list(itertools.product(*self.supports)), dtype=float)
        return np.asarray([float(f(x)) for x in outcomes], dtype=float)

    def expectation(self, values) -> float:
        """Exact expectation: the products value * probability, summed by one
        correctly rounded fsum (so independent of the summation order)."""
        return math.fsum((np.asarray(values, dtype=float) * self.probs).tolist())


def _plogp(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def cond_exp_except_coord(i: int, values, sp: FiniteProductSpace) -> np.ndarray:
    """Average over coordinate i, spread back along it: the result is the
    flat table of a function constant in coordinate i."""
    if not 0 <= i < sp.n:
        raise ValueError("coordinate index out of range")
    grid = np.asarray(values, dtype=float).reshape(sp.sizes)
    reduced = np.tensordot(grid, sp.weights[i], axes=([i], [0]))
    return np.repeat(np.expand_dims(reduced, axis=i), sp.sizes[i], axis=i).reshape(-1)


def exact_variance(values, sp: FiniteProductSpace) -> float:
    mu = sp.expectation(values)
    return sp.expectation((np.asarray(values) - mu) ** 2)


def efron_stein_gap(values, sp: FiniteProductSpace):
    """(variance, summed per-coordinate conditional variances)."""
    values = np.asarray(values, dtype=float)
    lhs = exact_variance(values, sp)
    rhs = 0.0
    for i in range(sp.n):
        resid = values - cond_exp_except_coord(i, values, sp)
        rhs += sp.expectation(resid ** 2)
    return lhs, rhs


def entropy_functional(values, sp: FiniteProductSpace) -> float:
    """E[f log f] - E[f] log E[f] for nonnegative f; 0 when E[f] = 0."""
    values = np.asarray(values, dtype=float)
    if values.min() < 0:
        raise ValueError("entropy functional needs nonnegative values")
    ef = sp.expectation(values)
    if ef <= 0:
        return 0.0
    return sp.expectation(_plogp(values)) - ef * math.log(ef)


def entropy_duality_check(y_values, t_values, sp: FiniteProductSpace):
    """(Ent(Y), E[Y (log T - log E T)]) for Y >= 0 and T > 0."""
    y = np.asarray(y_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    if t.min() <= 0:
        raise ValueError("duality witness T must be strictly positive")
    ent = entropy_functional(y, sp)
    et = sp.expectation(t)
    dual = sp.expectation(y * (np.log(t) - math.log(et)))
    return ent, dual


def tensorization_gap(y_values, sp: FiniteProductSpace):
    """(Ent(Y), sum_i E[Ent over coordinate i with the rest held fixed])."""
    y = np.asarray(y_values, dtype=float)
    if y.min() < 0:
        raise ValueError("tensorization needs nonnegative values")
    lhs = entropy_functional(y, sp)
    plogp = _plogp(y)
    rhs = 0.0
    for i in range(sp.n):
        a = cond_exp_except_coord(i, plogp, sp)
        b = cond_exp_except_coord(i, y, sp)
        rhs += sp.expectation(
            np.where(b > 0, a - b * np.log(np.where(b > 0, b, 1.0)), 0.0))
    return lhs, rhs


class JointPmf:
    """A joint pmf on a finite product grid, not necessarily product-form."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        if self.table.ndim < 1:
            raise SpaceValidationError("joint table needs at least 1 axis")
        if self.table.min() < 0:
            raise SpaceValidationError("negative probability")
        if abs(self.table.sum() - 1.0) > WEIGHT_TOL:
            raise SpaceValidationError("joint pmf must sum to 1 within 1e-12")
        self.n = self.table.ndim

    @classmethod
    def from_product(cls, weights):
        return cls(_outer_product([np.asarray(w, float) for w in weights]))


def shannon_entropy(table) -> float:
    p = np.asarray(table, dtype=float).reshape(-1)
    return -math.fsum(float(v) for v in _plogp(p))


def han_inequality_gap(p: JointPmf):
    """(joint entropy, averaged leave-one-out marginal entropies)."""
    if p.n < 2:
        raise ValueError("need at least two coordinates")
    lhs = shannon_entropy(p.table)
    total = 0.0
    for i in range(p.n):
        total += shannon_entropy(p.table.sum(axis=i))
    rhs = total / (p.n - 1)
    return lhs, rhs


def bernoulli_lsi_gap(values, sp: FiniteProductSpace):
    """(Ent(f^2), half the summed squared coordinate-flip differences).

    Requires the uniform product on {-1,+1}^n with n <= 12.
    """
    if sp.n > 12:
        raise SpaceValidationError("two-point LSI check limited to n <= 12")
    if sp.sizes != (2,) * sp.n or not np.allclose(np.stack(sp.supports), [-1.0, 1.0]):
        raise SpaceValidationError("space must be a {-1,+1} product")
    if not np.allclose(np.stack(sp.weights), 0.5, atol=WEIGHT_TOL):
        raise SpaceValidationError("space must be uniform")
    f = np.asarray(values, dtype=float)
    lhs = entropy_functional(f ** 2, sp)
    grid = f.reshape(sp.sizes)
    dirichlet = np.zeros(sp.sizes)
    for i in range(sp.n):
        dirichlet = dirichlet + (grid - np.flip(grid, axis=i)) ** 2
    rhs = 0.5 * sp.expectation(dirichlet.reshape(-1))
    return lhs, rhs


# -- random instances and replay dumps ---------------------------------------


def replay_instance(doc: dict) -> dict:
    """Recompute every gap of a dumped instance (the dict of random_instance);
    keys are family names and values are (lhs, rhs) pairs ordered so that
    each contract reads lhs <= rhs.  A missing key raises KeyError naming it."""
    sp = FiniteProductSpace(doc["supports"], doc["weights"])
    f = np.asarray(doc["values"], dtype=float)
    out = {"efron_stein": efron_stein_gap(f, sp)}
    y = np.abs(f) + 0.1
    t = np.asarray(doc["aux_values"], dtype=float)
    ent, dual = entropy_duality_check(y, t, sp)
    out["duality"] = (dual, ent)
    ent, dual = entropy_duality_check(y, y, sp)
    out["duality_eq"] = (dual, ent)
    out["tensorization"] = tensorization_gap(y, sp)
    table = np.asarray(doc["joint"], dtype=float).reshape(doc["shape"])
    out["han"] = han_inequality_gap(JointPmf(table))
    g = np.asarray(doc["rademacher_values"], dtype=float)
    n = int(np.log2(g.size))
    out["bernoulli_lsi"] = bernoulli_lsi_gap(g, FiniteProductSpace.rademacher(n))
    return out


def _binary_weights(rng, n) -> list:
    weights = []
    for _ in range(n):
        a = float(rng.uniform(0.05, 0.95))
        weights.append([a, 1.0 - a])
    return weights


def random_binary_space(rng, n) -> FiniteProductSpace:
    return FiniteProductSpace([[0.0, 1.0]] * n, _binary_weights(rng, n))


def random_joint_pmf(rng, shape) -> JointPmf:
    raw = rng.uniform(0.0, 1.0, size=shape)
    raw = raw / raw.sum()
    # renormalize exactly to the tolerance by absorbing rounding into one cell
    raw.flat[0] += 1.0 - raw.sum()
    return JointPmf(raw)


def random_instance(rng) -> dict:
    """One instance of every family, in the dumped form replay_instance
    reads: a random product measure on {0,1}^3 with a function table and a
    duality witness on it, a joint pmf on a 2x2x2 grid, and a function table
    on {-1,+1}^3."""
    weights = _binary_weights(rng, 3)
    f = rng.uniform(-1.0, 1.0, size=8)
    t = rng.uniform(0.1, 2.0, size=8)
    joint = random_joint_pmf(rng, (2, 2, 2)).table
    g = rng.uniform(-1.0, 1.0, size=8)
    return {"family": "instance", "supports": [[0.0, 1.0]] * 3,
            "weights": weights, "values": f.tolist(), "aux_values": t.tolist(),
            "joint": joint.reshape(-1).tolist(), "shape": list(joint.shape),
            "rademacher_values": g.tolist()}
