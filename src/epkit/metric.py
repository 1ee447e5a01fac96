"""Finite pseudo-metric sets: eps-nets, covering and packing numbers, metric
entropy, entropy integrals, and the closed-form Euclidean ball covering bound.

All nets are *internal*: centers are drawn from the point set itself.
Internal covering counts dominate ambient ones, so every upper bound computed
here is also an upper bound for the ambient-center formulation.

Two maximal-packing constructions are provided:

* ``order="index"``  - greedy scan in input index order (the default, and the
  documented reproducible construction);
* ``order="farthest"`` - farthest-point traversal.  Its insertion radii are
  nonincreasing, so the packing at scale eps is a prefix of one fixed
  ordering and the resulting covering upper bounds are provably monotone in
  eps.  The entropy calculus uses this construction; index-order greedy
  counts are *not* monotone in eps (four points in the plane suffice for a
  counterexample), which would break scale profiles.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist


class MetricValidationError(ValueError):
    """Distance data is not a pseudo-metric."""


class SizeLimitError(ValueError):
    """Instance exceeds an enumeration budget."""


_EXHAUSTIVE_TRIANGLE_LIMIT = 200
_SAMPLED_TRIANGLES = 20000
_EXACT_COVER_LIMIT = 25
# octaves below the top scale covered by the entropy integral's quadrature;
# it needs at least two nodes per octave
FLOOR_OCTAVES = 16


class FiniteMetricSet:
    """A finite indexed point set with a pseudo-metric given by a matrix.

    Points are identified by index 0..n-1.  Construction validates symmetry,
    zero diagonal and the triangle inequality (exhaustively for up to 200
    points, on sampled triples beyond that).  Distinct points at distance 0
    are allowed.
    """

    def __init__(self, dmat, validate=True, _fp_tol=1e-9):
        dmat = np.asarray(dmat, dtype=float)
        if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
            raise MetricValidationError("distance matrix must be square")
        self.dmat = dmat
        self.n = dmat.shape[0]
        self._fp_tol = _fp_tol
        self._fps_order = None
        self._fps_radii = None
        if validate:
            self._validate()

    @classmethod
    def from_points(cls, points):
        """Euclidean metric on a point cloud (one point per row)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(cdist(points, points))

    def _validate(self):
        d = self.dmat
        scale = float(d.max(initial=0.0))
        tol = self._fp_tol * (1.0 + scale)
        if d.min(initial=0.0) < -tol:
            raise MetricValidationError("negative distances")
        if np.abs(np.diag(d)).max(initial=0.0) > tol:
            raise MetricValidationError("nonzero diagonal")
        if np.abs(d - d.T).max(initial=0.0) > tol:
            raise MetricValidationError("asymmetric distances")
        n = self.n
        if n <= _EXHAUSTIVE_TRIANGLE_LIMIT:
            for k in range(n):
                if (d - (d[:, k:k + 1] + d[k:k + 1, :])).max(initial=0.0) > tol:
                    raise MetricValidationError(
                        f"triangle inequality fails through point {k}")
        else:
            rng = np.random.default_rng(0)
            i, j, k = rng.integers(0, n, size=(3, _SAMPLED_TRIANGLES))
            if (d[i, j] - d[i, k] - d[k, j]).max(initial=0.0) > tol:
                raise MetricValidationError("triangle inequality fails (sampled)")

    @cached_property
    def diameter(self) -> float:
        return float(self.dmat.max()) if self.n else 0.0

    def min_positive_distance(self) -> float:
        """Smallest nonzero pairwise distance; 0.0 if all pairs coincide."""
        if self.n < 2:
            return 0.0
        iu = np.triu_indices(self.n, k=1)
        vals = self.dmat[iu]
        pos = vals[vals > 0]
        return float(pos.min()) if pos.size else 0.0

    # -- farthest-point traversal -------------------------------------------

    def farthest_point_order(self):
        """(order, radii): traversal starting at index 0, ties to lowest index.

        radii[i] is the distance of order[i] to the previously selected
        points (inf for the first).  The sequence is nonincreasing, so
        {order[j] : radii[j] > eps} is a maximal eps-packing for every eps.
        """
        if self._fps_order is not None:
            return self._fps_order, self._fps_radii
        n = self.n
        order = np.empty(n, dtype=int)
        radii = np.empty(n, dtype=float)
        if n:
            order[0] = 0
            radii[0] = np.inf
            mind = self.dmat[0].copy()
            for i in range(1, n):
                nxt = int(np.argmax(mind))  # argmax takes the lowest index on ties
                order[i] = nxt
                radii[i] = mind[nxt]
                np.minimum(mind, self.dmat[nxt], out=mind)
        self._fps_order = order
        self._fps_radii = radii
        return order, radii


@dataclass(frozen=True)
class EpsilonNet:
    """A set of internal centers together with its scale."""

    centers: tuple
    eps: float

    def validate(self, s: FiniteMetricSet) -> None:
        centers = np.asarray(self.centers, dtype=int)
        if centers.size and not ((0 <= centers) & (centers < s.n)).all():
            raise MetricValidationError("net centers must be members of the set")
        if not is_epsilon_net(centers, self.eps, s):
            raise MetricValidationError(
                f"centers do not cover the set at scale {self.eps:.6g}")


def is_epsilon_net(net, eps: float, s: FiniteMetricSet) -> bool:
    """True iff every point of s lies in a closed eps-ball around some center."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    net = np.asarray(list(net), dtype=int)
    if s.n == 0:
        return True
    if net.size == 0:
        return False
    return bool((s.dmat[np.ix_(net, np.arange(s.n))].min(axis=0) <= eps).all())


def maximal_packing(eps: float, s: FiniteMetricSet, order="index") -> np.ndarray:
    """Maximal pairwise->eps separated subset; by maximality an eps-net of s.

    order: "index" (greedy scan in input order), "farthest" (farthest-point
    traversal, ties to lowest index), or an explicit index sequence.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if s.n == 0:
        return np.empty(0, dtype=int)
    if isinstance(order, str) and order == "farthest":
        fps_order, _ = s.farthest_point_order()
        return fps_order[:covering_counts(s, eps)].copy()
    if isinstance(order, str) and order == "index":
        scan = range(s.n)
    else:
        scan = [int(i) for i in order]
        if sorted(scan) != list(range(s.n)):
            raise ValueError("order must be a permutation of the point indices")
    chosen = []
    for p in scan:
        if all(s.dmat[p, q] > eps for q in chosen):
            chosen.append(p)
    return np.asarray(chosen, dtype=int)


@dataclass
class CoveringBounds:
    eps: float
    lower: int
    upper: int
    witness: np.ndarray  # the upper-bound net (a maximal eps-packing)

    def witness_net(self) -> EpsilonNet:
        return EpsilonNet(centers=tuple(int(i) for i in self.witness),
                          eps=self.eps)


def covering_counts(s: FiniteMetricSet, scales) -> np.ndarray:
    """Covering upper bounds at a scale or an array of scales: the sizes of
    the farthest-point maximal packings, i.e. the number of traversal radii
    above eps.  The radii are nonincreasing, so so are the counts in eps."""
    scales = np.asarray(scales, dtype=float)
    if (scales <= 0).any():
        raise ValueError("eps must be positive")
    _, radii = s.farthest_point_order()
    # packing membership is strict (radii > eps), hence side="left"
    return np.searchsorted(-radii, -scales, side="left")


def entropies(counts) -> np.ndarray:
    """log(count), and 0 where one ball suffices (count <= 1)."""
    counts = np.asarray(counts)
    return np.where(counts <= 1, 0.0, np.log(np.maximum(counts, 1)))


def covering_number_bounds(eps: float, s: FiniteMetricSet) -> CoveringBounds:
    """Packing sandwich: |packing(2 eps)| <= N(eps) <= |packing(eps)|.

    Uses the farthest-point construction so the upper counts are
    nonincreasing in eps; the witness is the eps-packing itself.
    """
    witness = maximal_packing(eps, s, order="farthest")
    return CoveringBounds(eps=float(eps), lower=int(covering_counts(s, 2.0 * eps)),
                          upper=len(witness), witness=witness)


def exact_covering_number(eps: float, s: FiniteMetricSet) -> int:
    """Exact minimal internal eps-net cardinality by branch-and-bound search.

    Only for small instances (|s| <= 25); used as the test oracle against the
    greedy bounds.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = s.n
    if n > _EXACT_COVER_LIMIT:
        raise SizeLimitError(f"exact covering number limited to {_EXACT_COVER_LIMIT} points")
    if n == 0:
        return 0
    masks = []
    for c in range(n):
        m = 0
        for p in np.nonzero(s.dmat[c] <= eps)[0]:
            m |= 1 << int(p)
        masks.append(m)
    full = (1 << n) - 1
    max_ball = max(m.bit_count() for m in masks)

    # greedy cover for the initial incumbent
    best = 0
    uncovered = full
    while uncovered:
        pick = max(range(n), key=lambda c: (masks[c] & uncovered).bit_count())
        uncovered &= ~masks[pick]
        best += 1

    covers_point = [[c for c in range(n) if masks[c] >> p & 1] for p in range(n)]

    def dfs(uncovered, count, best):
        if uncovered == 0:
            return count
        need = -((uncovered.bit_count()) // -max_ball)  # ceil division
        if count + need >= best:
            return best
        # branch on the uncovered point with the fewest candidate centers
        p = min((q for q in range(n) if uncovered >> q & 1),
                key=lambda q: len(covers_point[q]))
        for c in sorted(covers_point[p],
                        key=lambda c: -(masks[c] & uncovered).bit_count()):
            best = dfs(uncovered & ~masks[c], count + 1, best)
        return best

    return dfs(full, 0, best)


def metric_entropy(eps: float, s: FiniteMetricSet) -> float:
    """log of the covering upper bound; 0 when one ball suffices.

    The count is the greedy (farthest-point) upper bound, not the exact
    minimum, so entropies are conservative and monotone in eps.
    """
    return float(entropies(covering_counts(s, eps)))


def entropy_integral(s: FiniteMetricSet, D: float, nodes: int = 64,
                     floor_octaves: int = FLOOR_OCTAVES) -> float:
    """Upper Riemann sum of sqrt(metric_entropy) over (0, D].

    Left endpoints on a geometric grid give an upper sum because the
    integrand is nonincreasing in eps.  The grid is anchored at the largest
    scale with nonzero entropy (the integrand vanishes above it), so raising
    D only appends nonnegative cell contributions and the result is monotone
    in D by construction.  The head below the finest node is bounded by its
    width times sqrt(log |s|), the largest entropy a finite set can have.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if nodes < 2 * floor_octaves:
        raise ValueError(f"need at least {2 * floor_octaves} quadrature nodes, "
                         "2 per dyadic octave")
    if s.n <= 1:
        return 0.0
    _, radii = s.farthest_point_order()
    top = float(radii[1])  # entropy is 0 at eps >= second insertion radius
    if top <= 0:
        return 0.0
    floor = top * 2.0 ** (-floor_octaves)
    head = min(D, floor) * np.sqrt(np.log(s.n))
    if D <= floor:
        return float(head)
    grid = np.geomspace(floor, top, num=nodes)
    ent = entropies(covering_counts(s, grid[:-1]))  # at the left endpoints
    widths = np.clip(np.minimum(D, grid[1:]) - grid[:-1], 0.0, None)
    return float(np.sum(np.sqrt(ent) * widths) + head)


def dyadic_sum(s: FiniteMetricSet, D: float, K: int) -> float:
    """sum_{k<K} eps_k sqrt(metric_entropy(eps_k)) at scales eps_k = D 2^-k."""
    if D <= 0:
        raise ValueError("D must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    scales = D * 2.0 ** (-np.arange(K))
    total = 0.0
    for eps_k, ent in zip(scales, entropies(covering_counts(s, scales))):
        total += eps_k * np.sqrt(ent)
    return float(total)


def euclidean_ball_covering_bound(R: float, eps: float, dim: int) -> float:
    """Covering bound (1 + 2R/eps)^dim for the Euclidean R-ball in dim dims."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float((1.0 + 2.0 * R / eps) ** dim)


# -- scale profiles and CSV interfaces ---------------------------------------


@dataclass
class EntropyProfile:
    scales: np.ndarray     # strictly decreasing
    lowers: np.ndarray     # packing lower bounds on the covering number
    counts: np.ndarray     # covering upper bounds, nondecreasing as eps drops
    entropies: np.ndarray  # 0 where count <= 1, else log(count)


def entropy_profile(s: FiniteMetricSet, scales) -> EntropyProfile:
    scales = np.asarray(sorted(set(float(e) for e in scales), reverse=True))
    if scales.size == 0 or scales[-1] <= 0:
        raise ValueError("scales must be positive")
    counts = covering_counts(s, scales)
    return EntropyProfile(scales=scales, lowers=covering_counts(s, 2.0 * scales),
                          counts=counts, entropies=entropies(counts))


def profile_to_csv(profile: EntropyProfile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["eps", "lower", "upper", "entropy"])
    for eps, lo, up, h in zip(profile.scales, profile.lowers,
                              profile.counts, profile.entropies):
        writer.writerow([format(eps, ".12g"), lo, up, format(h, ".12g")])
    return buf.getvalue()


def load_points_csv(path) -> np.ndarray:
    """Point cloud from CSV, one point per row; a header row is skipped.  A
    file without rows is an error, not an empty set."""
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    if pts.size == 0:
        raise ValueError(f"no points in {path}")
    return pts


def load_distance_matrix_csv(path) -> FiniteMetricSet:
    mat = load_points_csv(path)
    return FiniteMetricSet(mat)
