"""Dyadic net hierarchies and multiscale bounds on expected suprema of the
canonical Gaussian-linear process over a finite Euclidean index set.

The test process is X_t(w) = sigma <w, t - t0> with w standard normal: it is
centered at the basepoint, its increments are Gaussian with standard
deviation sigma ||s - t||, and it satisfies the moment-generating bound with
parameter sigma exactly, so every hypothesis of the multiscale bound holds by
construction.

Net cardinality certificates use the farthest-point covering upper bounds
from :mod:`epkit.metric`; the level-k net is the maximal packing at the next
finer scale, so its size *equals* the covering upper bound there and the
multiscale sums computed from those bounds dominate the chained estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import metric
from .gaussian import McEstimate
from .rng import derive_rng

STAGE1_CONST = 6.0 * np.sqrt(2.0)
FULL_CONST = 12.0 * np.sqrt(2.0)
MAX_DEPTH = 48


class DepthError(ValueError):
    pass


@dataclass
class IndexSet:
    """Finite Euclidean index set with a declared basepoint."""

    points: np.ndarray          # (m, dim)
    basepoint: int = 0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not 0 <= self.basepoint < len(self.points):
            raise ValueError("basepoint must be a member index")
        self._metric = None

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def metric_set(self) -> metric.FiniteMetricSet:
        if self._metric is None:
            self._metric = metric.FiniteMetricSet.from_points(self.points)
        return self._metric

    @property
    def diameter(self) -> float:
        return self.metric_set().diameter


@dataclass
class CanonicalProcess:
    """X_t(w) = sigma <w, t - t0> for standard normal noise w."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def realize(self, s: IndexSet, noise: np.ndarray) -> np.ndarray:
        """Process values, shape (m, n_samples); the basepoint row is 0."""
        noise = np.atleast_2d(np.asarray(noise, dtype=float))
        centered = s.points - s.points[s.basepoint]
        return self.sigma * centered @ noise.T


@dataclass
class DyadicLevel:
    k: int
    eps: float
    net: np.ndarray        # point indices, a maximal packing at eps_{k+1}
    card_bound: int        # certified covering upper bound at eps_{k+1}


@dataclass
class DyadicNets:
    index_set: IndexSet
    D: float
    K: int
    levels: list  # DyadicLevel for k = 0..K


def default_depth(s: IndexSet, D: float) -> int:
    """Smallest K >= 1 with eps_K below half the minimal positive distance.

    Beyond that scale the packing picks up every point, so the hierarchy
    stops changing.
    """
    min_pos = s.metric_set().min_positive_distance()
    if min_pos <= 0:
        return 1
    k = 1
    while D * 2.0 ** (-k) >= 0.5 * min_pos:
        k += 1
        if k > MAX_DEPTH:
            raise DepthError("dyadic depth exceeds the supported maximum")
    return k


def build_dyadic_nets(s: IndexSet, D: float = None, K: int = None) -> DyadicNets:
    """Hierarchy T_0..T_K with T_k the maximal packing at scale D 2^-(k+1).

    Each T_k is an eps_{k+1}-net, hence also an eps_k-net, and its size
    equals the farthest-point covering upper bound at eps_{k+1}.
    """
    ms = s.metric_set()
    diam = ms.diameter
    if D is None:
        D = diam if diam > 0 else 1.0
    if D <= 0:
        raise ValueError("D must be positive")
    if diam > D * (1 + 1e-12):
        raise ValueError(f"diameter {diam:.6g} exceeds declared D={D:.6g}")
    if K is None:
        K = default_depth(s, D)
    if K < 0:
        raise ValueError("K must be nonnegative")
    levels = []
    for k in range(K + 1):
        eps_k = D * 2.0 ** (-k)
        net = metric.maximal_packing(eps_k / 2.0, ms, order="farthest")
        levels.append(DyadicLevel(k=k, eps=eps_k, net=net, card_bound=len(net)))
    return DyadicNets(index_set=s, D=float(D), K=int(K), levels=levels)


def recursive_projection(u: int, nets: DyadicNets) -> list:
    """Chain pi_0(u)..pi_K(u): each level projects the next finer level's
    point to its nearest net member (ties to the lowest index)."""
    if u not in nets.levels[nets.K].net:
        raise ValueError("u must belong to the finest net")
    dmat = nets.index_set.metric_set().dmat
    chain = [int(u)]
    current = int(u)
    for k in range(nets.K - 1, -1, -1):
        net = nets.levels[k].net
        local = int(np.argmin(dmat[current, net]))
        ordered = np.flatnonzero(
            dmat[current, net] == dmat[current, net[local]])
        # ties broken by lowest point index
        current = int(net[ordered[np.argmin(net[ordered])]])
        chain.append(current)
    chain.reverse()
    return chain


def projection_step_margins(nets: DyadicNets) -> np.ndarray:
    """eps_k - dist(pi_k, pi_{k+1}) over all finest-net points and levels."""
    dmat = nets.index_set.metric_set().dmat
    margins = []
    for u in nets.levels[nets.K].net:
        chain = recursive_projection(int(u), nets)
        for k in range(nets.K):
            margins.append(nets.levels[k].eps - dmat[chain[k], chain[k + 1]])
    return np.asarray(margins) if margins else np.asarray([0.0])


def telescoping_residual(u: int, nets: DyadicNets, proc: CanonicalProcess,
                         noise: np.ndarray) -> float:
    """| (X_u - X_t0) - base - sum of chained increments | for one noise draw."""
    s = nets.index_set
    x = proc.realize(s, noise[None, :])[:, 0]
    chain = recursive_projection(u, nets)
    t0 = s.basepoint
    lhs = x[u] - x[t0]
    rhs = x[chain[0]] - x[t0]
    for k in range(nets.K):
        rhs += x[chain[k + 1]] - x[chain[k]]
    return float(abs(lhs - rhs))


def stage1_bound_check(nets: DyadicNets, proc: CanonicalProcess,
                       n_samples: int, seed: int):
    """(E max over the finest net estimate, 6 sqrt2 sigma dyadic_sum(K+1)).

    Use the default depth: below it, fine-scale cardinalities are not
    represented in the multiscale sum and the certificate can be vacuous on
    adversarial geometries.
    """
    if nets.K < 1:
        raise ValueError("stage-1 check needs depth K >= 1")
    s = nets.index_set
    rng = derive_rng(seed, "stage1", s.m, nets.K)
    noise = rng.standard_normal((n_samples, s.dim))
    x = proc.realize(s, noise)                      # (m, n_samples)
    finest = nets.levels[nets.K].net
    esup = McEstimate.from_samples(x[finest].max(axis=0))
    bound = STAGE1_CONST * proc.sigma * metric.dyadic_sum(
        s.metric_set(), nets.D, nets.K + 1)
    return esup, float(bound)


def dudley_bound_check(s: IndexSet, proc: CanonicalProcess, n_samples: int,
                       seed: int, D: float = None, nodes: int = 64):
    """(E sup over all of s estimate, 12 sqrt2 sigma entropy_integral(s, D))."""
    ms = s.metric_set()
    if D is None:
        D = ms.diameter if ms.diameter > 0 else 1.0
    if ms.diameter > D * (1 + 1e-12):
        raise ValueError("diameter exceeds declared D")
    rng = derive_rng(seed, "dudley-sup", s.m)
    noise = rng.standard_normal((n_samples, s.dim))
    x = proc.realize(s, noise)
    esup = McEstimate.from_samples(x.max(axis=0))
    rhs = FULL_CONST * proc.sigma * metric.entropy_integral(ms, D, nodes=nodes)
    return esup, float(rhs)


@dataclass
class MgfRow:
    i: int
    j: int
    lam: float
    empirical: float
    stderr: float
    bound: float
    overflow: bool = False

    @property
    def margin(self) -> float:
        if self.overflow:
            return -np.inf
        return self.bound + 3.0 * self.stderr - self.empirical


def subgaussian_process_check(s: IndexSet, proc: CanonicalProcess, pairs,
                              lambdas, n_samples: int, seed: int):
    """Empirical increment MGFs against exp(l^2 sigma^2 d^2 / 2) per (pair, l).

    Returns (worst margin, rows); an overflow is recorded per row rather than
    aborting the grid.
    """
    pairs = list(pairs)
    lambdas = list(lambdas)
    if not pairs or not lambdas:
        raise ValueError("need at least one pair and one lambda")
    rng = derive_rng(seed, "mgf", s.m)
    noise = rng.standard_normal((n_samples, s.dim))
    dmat = s.metric_set().dmat
    rows = []
    for (i, j) in pairs:
        z = proc.sigma * (s.points[i] - s.points[j]) @ noise.T
        d = dmat[i, j]
        for lam in lambdas:
            bound = float(np.exp(0.5 * lam ** 2 * proc.sigma ** 2 * d ** 2))
            with np.errstate(over="ignore"):
                e = np.exp(lam * z)
            if not np.isfinite(e).all():
                rows.append(MgfRow(i, j, lam, np.inf, np.inf, bound, overflow=True))
                continue
            est = McEstimate.from_samples(e)
            rows.append(MgfRow(i, j, lam, est.mean, est.stderr, bound))
    worst = min(r.margin for r in rows)
    return float(worst), rows


def chi_mean(dim: int) -> float:
    """E ||w|| for a standard normal dim-vector."""
    return float(np.exp(0.5 * np.log(2.0)
                        + gammaln((dim + 1) / 2.0) - gammaln(dim / 2.0)))


@dataclass
class DenseSupCheck:
    coarse: McEstimate
    fine: McEstimate
    mesh: float
    gap_bound: float   # sigma * mesh * E||w||

    @property
    def margin(self) -> float:
        slack = 3.0 * (self.coarse.stderr + self.fine.stderr)
        return self.gap_bound + slack - (self.fine.mean - self.coarse.mean)


def dense_sequence_sup_check(coarse: IndexSet, fine: IndexSet,
                             proc: CanonicalProcess, n_samples: int,
                             seed: int) -> DenseSupCheck:
    """E sup over two discretizations of the same set, on shared noise.

    The refinement can raise the expected supremum by at most sigma times the
    directed mesh gap times E||w||, the desk-scale version of passing to a
    dense sequence.
    """
    from scipy.spatial.distance import cdist

    if coarse.dim != fine.dim:
        raise ValueError("dimension mismatch")
    scale = 1.0 + float(np.abs(fine.points).max(initial=0.0))
    containment = cdist(coarse.points, fine.points).min(axis=1)
    if containment.max(initial=0.0) > 1e-9 * scale:
        raise ValueError("the coarse set must be contained in the fine set")
    gaps = cdist(fine.points, coarse.points).min(axis=1)
    mesh = float(gaps.max())
    rng = derive_rng(seed, "dense-sup", coarse.m, fine.m)
    noise = rng.standard_normal((n_samples, fine.dim))
    # both suprema relative to the same basepoint value
    base = fine.points[fine.basepoint]
    xc = proc.sigma * (coarse.points - base) @ noise.T
    xf = proc.sigma * (fine.points - base) @ noise.T
    est_c = McEstimate.from_samples(xc.max(axis=0))
    est_f = McEstimate.from_samples(xf.max(axis=0))
    bound = proc.sigma * mesh * chi_mean(fine.dim)
    return DenseSupCheck(coarse=est_c, fine=est_f, mesh=mesh, gap_bound=bound)
