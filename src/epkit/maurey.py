"""Probabilistic sparsification of l1-ball images and constructive covering
nets for {X theta / sqrt(n) : ||theta||_1 <= R}.

A hull point v = X theta / sqrt(n) is written as the expectation of a random
atom Z taking values in {0} and {+-R X_j / sqrt(n)}, and k-sample averages of
Z concentrate around v at rate R^2/k.  Resampling until an average lands
within eps of v is the constructive stand-in for the existence step; with
k = ceil(R^2/eps^2) the expected squared error is at most eps^2, so the
attempt cap is hit only with negligible probability on valid inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import derive_rng, l1_ball_point

NET_BUDGET = 10 ** 6
SAMPLE_BUDGET = 10 ** 4    # largest k, the number of atoms in one average
MAX_ATTEMPTS = 64          # k-averages drawn per sparsification
N_VALIDATION = 100         # hull points a constructed net must cover
DEDUP_DECIMALS = 9


class BudgetError(ValueError):
    pass


def _ceil_ratio(R: float, eps: float) -> int:
    """ceil(R^2/eps^2), which is 1 for R > 0 where the ratio underflows to 0;
    BudgetError above SAMPLE_BUDGET."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        ratio = R ** 2 / eps ** 2
    except ZeroDivisionError:  # eps^2 underflows
        ratio = np.inf
    except OverflowError:  # R^2 or eps^2 overflows, but the ratio may not
        try:
            ratio = (R / eps) ** 2
        except OverflowError:
            ratio = np.inf
    if not ratio <= SAMPLE_BUDGET:
        raise BudgetError(f"k = ceil(R^2/eps^2) = ceil({ratio:.6g}) exceeds the "
                          f"sample budget {SAMPLE_BUDGET}")
    return max(int(np.ceil(ratio)), int(R > 0))


def sample_size(R: float, eps: float) -> int:
    """k = max(ceil(R^2/eps^2), 1), the atoms averaged per sample so that the
    expected squared error is at most eps^2."""
    return max(_ceil_ratio(R, eps), 1)


@dataclass
class ColumnDictionary:
    """An n x d column dictionary, normalized to ||col|| <= sqrt(n)."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        norms = np.linalg.norm(self.X, axis=0)
        if (norms > np.sqrt(self.n) * (1 + 1e-12)).any():
            raise ValueError("columns exceed sqrt(n) on a normalized dictionary")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def atom_matrix(self, R: float) -> np.ndarray:
        """Columns of the 2d+1 atoms: zero, then +-R col_j / sqrt(n)."""
        scaled = R * self.X / np.sqrt(self.n)
        return np.concatenate(
            [np.zeros((self.n, 1)), scaled, -scaled], axis=1)


@dataclass
class AtomDistribution:
    """Distribution over the 2d+1 atoms whose mean is X theta / sqrt(n)."""

    R: float
    atoms: np.ndarray      # the dictionary's atom_matrix(R), built once
    probs: np.ndarray      # length 2d+1, ordered as the atoms' columns

    def expectation(self) -> np.ndarray:
        return self.atoms @ self.probs

    def sample_indices(self, rng, k: int) -> np.ndarray:
        return rng.choice(self.probs.size, size=k, p=self.probs)


def _check_theta(theta, R):
    theta = np.asarray(theta, dtype=float)
    l1 = float(np.abs(theta).sum())
    if l1 > R + 1e-12:
        raise ValueError(f"||theta||_1 = {l1:.12g} exceeds R = {R:.12g}")
    return theta, l1


def maurey_distribution(theta, R: float, dictionary: ColumnDictionary) -> AtomDistribution:
    """Atom distribution: P(+-R col_j/sqrt n) = |theta_j|/R with the sign of
    theta_j, and the zero atom takes the remaining 1 - ||theta||_1/R."""
    if R <= 0:
        raise ValueError("R must be positive")
    theta, l1 = _check_theta(theta, R)
    d = dictionary.d
    probs = np.zeros(2 * d + 1)
    pos = np.where(theta > 0, theta, 0.0) / R
    neg = np.where(theta < 0, -theta, 0.0) / R
    probs[1:d + 1] = pos
    probs[d + 1:] = neg
    probs[0] = max(0.0, 1.0 - l1 / R)
    probs /= probs.sum()  # absorb float rounding; exact to ~1e-16
    return AtomDistribution(R=R, atoms=dictionary.atom_matrix(R), probs=probs)


def maurey_second_moment(theta, R: float, dictionary: ColumnDictionary) -> float:
    """Exact E||Z||^2 = R sum_j |theta_j| ||col_j||^2 / n <= R ||theta||_1."""
    theta, _ = _check_theta(theta, R)
    col_sq = np.sum(dictionary.X ** 2, axis=0) / dictionary.n
    return float(R * np.sum(np.abs(theta) * col_sq))


@dataclass
class SparseCombination:
    k: int
    atoms: list            # atom-matrix column indices, 0 = zero atom
    value: np.ndarray


@dataclass
class SparsifyResult:
    combination: SparseCombination
    error: float
    attempts: int
    success: bool
    k: int


def maurey_sparsify(dist: AtomDistribution, eps: float, seed: int) -> SparsifyResult:
    """Resample k-averages (k = sample_size(R, eps)) of the atoms of dist, the
    maurey_distribution of theta, until one lands within eps of its mean
    v = X theta / sqrt(n); reports the best attempt on exhaustion."""
    k = sample_size(dist.R, eps)
    v = dist.expectation()
    atoms = dist.atoms
    rng = derive_rng(seed, "maurey-sparsify", k)
    best = None
    best_err = np.inf
    for attempt in range(1, MAX_ATTEMPTS + 1):
        idx = dist.sample_indices(rng, k)
        avg = atoms[:, idx].mean(axis=1)
        err = float(np.linalg.norm(avg - v))
        if err < best_err:
            best_err = err
            best = SparseCombination(k=k, atoms=[int(i) for i in idx], value=avg)
        if err <= eps:
            return SparsifyResult(combination=best, error=best_err,
                                  attempts=attempt, success=True, k=k)
    return SparsifyResult(combination=best, error=best_err,
                          attempts=MAX_ATTEMPTS, success=False, k=k)


def l1_hull_net_bound(d: int, R: float, eps: float) -> int:
    """(2d+1)^ceil(R^2/eps^2) as an exact (arbitrary precision) integer; 1
    when the exponent is 0, as a hull of radius 0 is one point."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    return (2 * d + 1) ** _ceil_ratio(R, eps)


@dataclass
class NetConstruction:
    k: int
    bound: int
    net: np.ndarray          # (size, n) deduplicated k-averages
    max_error: float         # worst sparsify error among the checks
    max_net_distance: float  # worst distance of a returned average to the net


def l1_hull_net_construct(dictionary: ColumnDictionary, R: float, eps: float,
                          seed: int) -> NetConstruction:
    """Enumerate all k-tuples of atoms as averages and certify coverage.

    Tuples are enumerated as multisets (averages are order-free) and
    deduplicated by rounding; the tuple-count bound (2d+1)^k still applies.
    Coverage is certified statistically: N_VALIDATION random hull points must
    sparsify to within eps using net members only.
    """
    bound = l1_hull_net_bound(dictionary.d, R, eps)
    if bound > NET_BUDGET:
        raise BudgetError(
            f"(2d+1)^k = {bound} exceeds the enumeration budget {NET_BUDGET}; "
            "use maurey_sparsify as an implicit net")
    k = sample_size(R, eps)
    atoms = dictionary.atom_matrix(R)
    n_atoms = atoms.shape[1]
    seen = {}
    for combo in itertools.combinations_with_replacement(range(n_atoms), k):
        avg = atoms[:, combo].mean(axis=1)
        key = tuple(np.round(avg, DEDUP_DECIMALS))
        if key not in seen:
            seen[key] = avg
    net = np.asarray(list(seen.values()))
    if len(net) > bound:
        raise AssertionError("net cardinality exceeded its certificate")

    rng = derive_rng(seed, "net-validate")
    max_err = 0.0
    max_net_dist = 0.0
    for i in range(N_VALIDATION):
        theta = l1_ball_point(rng, dictionary.d, R)
        res = maurey_sparsify(maurey_distribution(theta, R, dictionary), eps,
                              seed=int(rng.integers(2 ** 62)))
        if not res.success:
            raise AssertionError("sparsification failed during net validation")
        max_err = max(max_err, res.error)
        dists = np.linalg.norm(net - res.combination.value[None, :], axis=1)
        max_net_dist = max(max_net_dist, float(dists.min()))
    return NetConstruction(k=k, bound=bound, net=net,
                           max_error=max_err, max_net_distance=max_net_dist)
