"""Exact verification of the variance/entropy tensorization chain on finite
product spaces.

A space stores its supports, weights and sizes and the flat table of outcome
probabilities; every expectation is an exact sum over that table, so the
inequality checks (variance decomposition, entropy subadditivity,
leave-one-out entropy, duality, two-point log-Sobolev) are exact up to float
rounding.  Natural logarithms throughout; 0 log 0 := 0 and Ent of an
a.e.-zero function is 0 by continuity.

Functions on a space are represented by their value table in the space's
lexicographic outcome order (coordinate 0 slowest); the tests tabulate a
callable with ``tabulate`` of ``tests/product_spaces.py``.

Conditional expectations come from one kernel, :func:`coordinate_averages`,
which returns every coordinate's average of a table at once.  For coordinate
i it gathers the flat table into an (m, k) array, row r holding the k
outcomes that differ in coordinate i only, multiplies it by the (k, 1)
weight column, and gathers the m averages back to the flat table.  The index
plans depend only on the sizes and are cached per shape (at most
``PLAN_CACHE`` shapes).  The bit contract: the 2-D product of a C-contiguous
(m, k) array by a (k, 1) column is the gemv that ``np.tensordot(grid, w,
axes=([i], [0]))`` reaches through ``np.dot``, so the averages equal
tensordot's in every bit.  With OpenBLAS 0.3.31 (SkylakeX kernels), 0 of
1007659 spread averages differed, in float hex, on 3000 random spaces of 1-5
coordinates of sizes 1-5, their values scaled by 1e+-300 per table and per
entry, with zeros and subnormals.  Stacking the coordinates into one 3-D
product (n, m, k) @ (n, k, 1) is not that gemv: on 400 tables of one scale
it differed from tensordot in 220 on 2 coordinates of size 2, in 234 on
3 x 3, 377 on 4 x 4 and 400 on 5 x 5 x 5, and matched only on the 4 x 2
and 8 x 2 blocks of 3 and 4 coordinates of size 2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

OUTCOME_BUDGET = 4096
WEIGHT_TOL = 1e-12
PLAN_CACHE = 64   # shapes whose coordinate plans are kept, 16 n N bytes each


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
    def rademacher(cls, n):
        """Uniform product on {-1,+1}^n."""
        return cls([[-1.0, 1.0]] * n, [[0.5, 0.5]] * n)

    def expectation(self, values) -> float:
        """Exact expectation: the products value * probability, summed by one
        correctly rounded fsum (so independent of the summation order)."""
        return math.fsum((np.asarray(values, dtype=float) * self.probs).tolist())


def _plogp(v: np.ndarray) -> np.ndarray:
    if v.min(initial=np.inf) > 0:
        return v * np.log(v)
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


@functools.lru_cache(maxsize=PLAN_CACHE)
def _coordinate_plans(sizes: tuple):
    """Per coordinate i: (lo, hi, gather), gather the (m, k) flat indices whose
    row r lists the outcomes that differ in coordinate i only, in support
    order, with the rows in the lexicographic order of the other coordinates;
    rows lo:hi of the stacked column of averages are that coordinate's.  Also
    the (n, N) index of each outcome's row in that column, and its length."""
    index = np.arange(math.prod(sizes)).reshape(sizes)
    plans, back, lo = [], [], 0
    for i, k in enumerate(sizes):
        gather = np.moveaxis(index, i, -1).reshape(-1, k)
        rows = np.empty(index.size, dtype=np.intp)
        rows[gather] = lo + np.arange(len(gather))[:, None]
        gather.flags.writeable = False
        plans.append((lo, lo + len(gather), gather))
        back.append(rows)
        lo += len(gather)
    back = np.stack(back)
    back.flags.writeable = False
    return tuple(plans), back, lo


def coordinate_averages(values, sp: FiniteProductSpace) -> np.ndarray:
    """(n, N) array whose row i averages the table over coordinate i and
    spreads the average back along it: the flat table of a function constant
    in coordinate i.  Each average is a row of one 2-D product (m, k) @ (k, 1),
    the bits of np.tensordot over that axis (see the module docstring)."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    if flat.size != sp.n_outcomes:
        raise ValueError(f"table of {flat.size} values on {sp.n_outcomes} outcomes")
    plans, back, n_rows = _coordinate_plans(sp.sizes)
    column = np.zeros((n_rows, 1))
    for (lo, hi, gather), w in zip(plans, sp.weights):
        np.dot(flat[gather], w.reshape(-1, 1), out=column[lo:hi])
    return column.reshape(-1)[back]


def _summed_expectations(tables, sp: FiniteProductSpace) -> float:
    """Sum of the exact expectations of the rows of tables, added in row
    order."""
    total = 0.0
    for row in (tables * sp.probs).tolist():
        total += math.fsum(row)
    return total


def exact_variance(values, sp: FiniteProductSpace) -> float:
    mu = sp.expectation(values)
    return sp.expectation((np.asarray(values) - mu) ** 2)


def efron_stein_gap(values, sp: FiniteProductSpace):
    """(variance, summed per-coordinate conditional variances)."""
    values = np.asarray(values, dtype=float)
    lhs = exact_variance(values, sp)
    rhs = _summed_expectations((values - coordinate_averages(values, sp)) ** 2, sp)
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
    a = coordinate_averages(_plogp(y), sp)
    b = coordinate_averages(y, sp)
    pos = b > 0
    rhs = _summed_expectations(
        np.where(pos, a - b * np.log(np.where(pos, b, 1.0)), 0.0), sp)
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


def shannon_entropy(table) -> float:
    p = np.asarray(table, dtype=float).reshape(-1)
    return -math.fsum(_plogp(p).tolist())


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


@functools.lru_cache(maxsize=12)
def _cube(n: int):
    """The uniform {-1,+1}^n of the two-point LSI check, one per n <= 12, and
    the (n, 2^n) flat indices of each outcome with coordinate i flipped."""
    sp = FiniteProductSpace.rademacher(n)
    plans, _, _ = _coordinate_plans(sp.sizes)
    flips = np.empty((n, sp.n_outcomes), dtype=np.intp)
    for i, (_, _, gather) in enumerate(plans):
        flips[i, gather] = gather[:, ::-1]
    flips.flags.writeable = False
    return sp, flips


def bernoulli_lsi_gap(values):
    """(Ent(f^2), half the summed squared coordinate-flip differences) for
    the table f of 2^n values, 1 <= n <= 12, on the uniform {-1,+1}^n."""
    f = np.asarray(values, dtype=float).reshape(-1)
    n = f.size.bit_length() - 1
    if not 1 <= n <= 12 or f.size != 2 ** n:
        raise SpaceValidationError(
            f"two-point LSI check needs 2^n values with 1 <= n <= 12, got {f.size}")
    sp, flips = _cube(n)
    lhs = entropy_functional(f ** 2, sp)
    # the rows are added in coordinate order, one after the other
    dirichlet = ((f - f[flips]) ** 2).sum(axis=0)
    rhs = 0.5 * sp.expectation(dirichlet)
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
    out["bernoulli_lsi"] = bernoulli_lsi_gap(doc["rademacher_values"])
    return out


def _binary_weights(rng, n) -> list:
    weights = []
    for _ in range(n):
        a = float(rng.uniform(0.05, 0.95))
        weights.append([a, 1.0 - a])
    return weights


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
