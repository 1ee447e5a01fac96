"""Dyadic net hierarchies and multiscale bounds on expected suprema of the
canonical Gaussian-linear process over a finite Euclidean index set.

An index set is a ``metric.FiniteMetricSet`` made by ``from_points``.  The
nets read only its distances; the process and its checks read its points.

The test process is X_t(w) = sigma <w, t - t0>, w standard normal and t0
the first point: it is centered at t0, its increments are Gaussian with
standard deviation sigma ||s - t||, and it satisfies the moment-generating
bound with parameter sigma exactly, so every hypothesis of the multiscale
bound holds by construction.

Net cardinality certificates use the farthest-point covering upper bounds
from :mod:`epkit.metric`; the level-k net is the maximal packing at the next
finer scale, so its size *equals* the covering upper bound there and the
multiscale sums computed from those bounds dominate the chained estimates.
Each projection pi_k: T_{k+1} -> T_k is stored once as a map, and since every
member of T_{k+1} is its own pi_{k+1}, the chained steps (pi_k, pi_{k+1}) of
all finest-net points are exactly the pairs (pi_k(v), v) over v in T_{k+1}.

Monte Carlo suprema are maxima over points of sigma (t - t0) @ noise.T,
formed by :func:`sample_maxima` one block of noise rows at a time, so memory
follows the block size (``metric.BLOCK_BYTES``), not the sample count.
Blocks start at multiples of 1024 noise rows and the last one absorbs the
remainder, because the blocked maxima must equal those of the whole product
bit for bit: with OpenBLAS 0.3.31, blocks at arbitrary offsets, and a
one-row trailing block (which numpy sends to gemv), rounded some entries
differently, while blocks aligned this way matched in every configuration
tried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import metric
from .gaussian import McEstimate, three_sigma_margin
from .rng import derive_rng

STAGE1_CONST = 6.0 * np.sqrt(2.0)
FULL_CONST = 12.0 * np.sqrt(2.0)
MAX_DEPTH = 48
BLAS_ALIGN = 1024   # noise rows; see the module docstring


class DepthError(ValueError):
    pass


def _cloud(ms: metric.FiniteMetricSet) -> np.ndarray:
    """The points of ms, a nonempty point cloud; the first is the basepoint t0."""
    if ms.points is None:
        raise ValueError("the process needs a point cloud, not a distance matrix")
    if not ms.n:
        raise ValueError("an index set needs at least one point")
    return ms.points


@dataclass
class CanonicalProcess:
    """X_t(w) = sigma <w, t - t0> for standard normal noise w."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def coefficients(self, points, base) -> np.ndarray:
        """Rows sigma (t - t0), so that X_t(w) = coefficients @ w."""
        return self.sigma * (points - base)

    def realize(self, ms: metric.FiniteMetricSet, noise: np.ndarray) -> np.ndarray:
        """Process values, shape (m, n_samples); the basepoint row is 0."""
        noise = np.atleast_2d(np.asarray(noise, dtype=float))
        points = _cloud(ms)
        return self.coefficients(points, points[0]) @ noise.T


def sample_maxima(scaled: np.ndarray, noise: np.ndarray, rows=None) -> np.ndarray:
    """For each noise row w, the maximum of scaled @ w over rows (all rows
    by default), computed one block of noise rows at a time.

    The values are those of (scaled @ noise.T)[rows].max(axis=0) bit for
    bit: the product is formed for every row of scaled, as one whole
    product would be, and the subset is taken from it afterwards.
    """
    out = np.empty(len(noise))
    for b in metric.blocks(len(noise), 8 * len(scaled), align=BLAS_ALIGN):
        x = scaled @ noise[b].T
        out[b] = (x if rows is None else x[rows]).max(axis=0)
    return out


@dataclass
class DyadicLevel:
    k: int
    eps: float
    net: np.ndarray        # point indices, a maximal packing at eps_{k+1}


@dataclass
class DyadicNets:
    metric_set: metric.FiniteMetricSet
    D: float
    K: int
    levels: list  # DyadicLevel for k = 0..K
    projections: list  # pi_k for k < K, indexed by point, set on T_{k+1}
    steps: list        # dist(pi_k(v), v) likewise


def default_depth(ms: metric.FiniteMetricSet, D: float) -> int:
    """Smallest K >= 1 with eps_K below half the minimal positive distance.

    Beyond that scale the packing picks up every point, so the hierarchy
    stops changing.
    """
    min_pos = ms.min_positive_distance()
    if min_pos <= 0:
        return 1
    k = 1
    while D * 2.0 ** (-k) >= 0.5 * min_pos:
        k += 1
        if k > MAX_DEPTH:
            raise DepthError(f"depth exceeds the supported maximum {MAX_DEPTH}")
    return k


def _declared_diameter(ms: metric.FiniteMetricSet, D: float) -> float:
    """D, by default the diameter (1.0 for one point), checked to bound it."""
    if not ms.n:
        raise ValueError("an index set needs at least one point")
    diam = ms.diameter
    if D is None:
        D = diam if diam > 0 else 1.0
    if D <= 0:
        raise ValueError("D must be positive")
    if diam > D * (1 + 1e-12):
        raise ValueError(f"diameter {diam:.6g} exceeds declared D={D:.6g}")
    return D


def build_dyadic_nets(ms: metric.FiniteMetricSet, D: float = None,
                      K: int = None) -> DyadicNets:
    """Hierarchy T_0..T_K with T_k the maximal packing at scale D 2^-(k+1).

    Each T_k is an eps_{k+1}-net, hence also an eps_k-net, and its size
    equals the farthest-point covering upper bound at eps_{k+1}.  pi_k maps
    T_{k+1} to its nearest member of T_k, ties to the lowest index; a member
    of T_k, a strict packing, is its own, so only the new members are read;
    the step distance of a member is the exact 0.0 of a distance diagonal.
    """
    D = _declared_diameter(ms, D)
    if K is None:
        K = default_depth(ms, D)
    if not 0 <= K <= MAX_DEPTH:
        raise DepthError(f"K={K} is outside the supported depths 0..{MAX_DEPTH}")
    levels = []
    for k in range(K + 1):
        eps_k = D * 2.0 ** (-k)
        net = metric.maximal_packing(eps_k / 2.0, ms)
        levels.append(DyadicLevel(k=k, eps=eps_k, net=net))
    projections, steps = [], []
    for coarse, fine in zip(levels, levels[1:]):
        pi, step = np.full(ms.n, -1), np.full(ms.n, np.nan)
        pi[coarse.net], step[coarse.net] = coarse.net, 0.0
        members = np.sort(coarse.net)
        new = fine.net[len(coarse.net):]   # the nets are traversal prefixes
        for b in metric.blocks(len(new), 8 * ms.n):
            d = ms.rows(new[b])[:, members]
            pi[new[b]] = members[d.argmin(axis=1)]
            step[new[b]] = d.min(axis=1)
        projections.append(pi)
        steps.append(step)
    return DyadicNets(ms, float(D), int(K), levels, projections, steps)


def recursive_projection(u: int, nets: DyadicNets) -> list:
    """Chain pi_0(u)..pi_K(u) along the projections of the nets."""
    if u not in nets.levels[nets.K].net:
        raise ValueError("u must belong to the finest net")
    chain = [int(u)]
    for pi in reversed(nets.projections):
        chain.append(int(pi[chain[-1]]))
    chain.reverse()
    return chain


def projection_step_margins(nets: DyadicNets) -> np.ndarray:
    """eps_k - dist(pi_k(v), v) over v in T_{k+1}: each step of the finest-net
    chains once (see the module docstring), so the minimum is theirs, but not
    the length or the order of the array."""
    margins = [lv.eps - step[fine.net] for lv, fine, step
               in zip(nets.levels, nets.levels[1:], nets.steps)]
    return np.concatenate(margins) if margins else np.asarray([0.0])


def telescoping_residual(u: int, nets: DyadicNets, proc: CanonicalProcess,
                         noise: np.ndarray) -> float:
    """| (X_u - X_t0) - base - sum of chained increments | for one noise draw."""
    x = proc.realize(nets.metric_set, noise[None, :])[:, 0]
    chain = recursive_projection(u, nets)
    lhs, rhs = x[u] - x[0], x[chain[0]] - x[0]
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
    ms, points = nets.metric_set, _cloud(nets.metric_set)
    rng = derive_rng(seed, "stage1", ms.n, nets.K)
    noise = rng.standard_normal((n_samples, points.shape[1]))
    scaled = proc.coefficients(points, points[0])
    finest = nets.levels[nets.K].net
    rows = None if len(finest) == ms.n else finest   # same maxima, no copy
    esup = McEstimate.from_samples(sample_maxima(scaled, noise, rows=rows))
    bound = STAGE1_CONST * proc.sigma * metric.dyadic_sum(ms, nets.D, nets.K + 1)
    return esup, float(bound)


def dudley_bound_check(ms: metric.FiniteMetricSet, proc: CanonicalProcess,
                       n_samples: int, seed: int, D: float = None):
    """(E sup over all of ms estimate, 12 sqrt2 sigma entropy_integral(ms, D))."""
    points = _cloud(ms)
    D = _declared_diameter(ms, D)
    rng = derive_rng(seed, "dudley-sup", ms.n)
    noise = rng.standard_normal((n_samples, points.shape[1]))
    scaled = proc.coefficients(points, points[0])
    esup = McEstimate.from_samples(sample_maxima(scaled, noise))
    rhs = FULL_CONST * proc.sigma * metric.entropy_integral(ms, D)
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
        return three_sigma_margin(McEstimate(self.empirical, self.stderr, 0),
                                  self.bound)


def subgaussian_process_check(ms: metric.FiniteMetricSet, proc: CanonicalProcess,
                              pairs, lambdas, n_samples: int, seed: int):
    """Empirical increment MGFs against exp(l^2 sigma^2 d^2 / 2) per (pair, l).

    Returns (worst margin, rows); an overflow is recorded per row rather than
    aborting the grid.
    """
    pairs, lambdas = list(pairs), list(lambdas)
    if not pairs or not lambdas:
        raise ValueError("need at least one pair and one lambda")
    points = _cloud(ms)
    rng = derive_rng(seed, "mgf", ms.n)
    noise = rng.standard_normal((n_samples, points.shape[1]))
    rows = []
    for (i, j) in pairs:
        z = proc.sigma * (points[i] - points[j]) @ noise.T
        d = ms.rows(i)[j]
        for lam in lambdas:
            bound = float(np.exp(0.5 * lam ** 2 * proc.sigma ** 2 * d ** 2))
            with np.errstate(over="ignore"):
                e = np.exp(lam * z)
            if not np.isfinite(e).all():
                rows.append(MgfRow(i, j, lam, np.inf, np.inf, bound, overflow=True))
                continue
            est = McEstimate.from_samples(e)
            rows.append(MgfRow(i, j, lam, est.mean, est.stderr, bound))
    return float(min(r.margin for r in rows)), rows


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
    def gap(self) -> McEstimate:
        """The rise of the expected supremum under refinement."""
        return McEstimate(self.fine.mean - self.coarse.mean,
                          self.coarse.stderr + self.fine.stderr, self.fine.n_samples)


def dense_sequence_sup_check(coarse: np.ndarray, fine: np.ndarray,
                             proc: CanonicalProcess, n_samples: int,
                             seed: int) -> DenseSupCheck:
    """E sup over two discretizations of the same set, point arrays, on
    shared noise.

    The refinement can raise the expected supremum by at most sigma times the
    directed mesh gap times E||w||, the desk-scale version of passing to a
    dense sequence.
    """
    for cloud in (coarse, fine):
        metric.reject_nonfinite(cloud)
    if coarse.shape[1] != fine.shape[1]:
        raise ValueError("dimension mismatch")
    scale = 1.0 + float(np.abs(fine).max(initial=0.0))
    containment = metric.nearest_distances(coarse, fine)
    if containment.max(initial=0.0) > 1e-9 * scale:
        raise ValueError("the coarse set must be contained in the fine set")
    mesh = float(metric.nearest_distances(fine, coarse).max())
    rng = derive_rng(seed, "dense-sup", len(coarse), len(fine))
    noise = rng.standard_normal((n_samples, fine.shape[1]))
    # both suprema relative to the same basepoint value
    est_c, est_f = (McEstimate.from_samples(sample_maxima(
        proc.coefficients(cloud, fine[0]), noise)) for cloud in (coarse, fine))
    bound = proc.sigma * mesh * chi_mean(fine.shape[1])
    return DenseSupCheck(coarse=est_c, fine=est_f, mesh=mesh, gap_bound=bound)
