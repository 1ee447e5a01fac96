"""Finite pseudo-metric sets: eps-nets, covering and packing numbers, metric
entropy, entropy integrals, and the closed-form Euclidean ball covering bound.

All nets are *internal*: centers are drawn from the point set itself.
Internal covering counts dominate ambient ones, so every upper bound computed
here is also an upper bound for the ambient-center formulation.

A set is a distance matrix or a Euclidean point cloud, and every distance is
read as rows on demand: a cloud's n×n matrix is never formed, so its memory
follows the block budget ``BLOCK_BYTES``, not n².  A cloud's distances come
from scipy's ``cdist``, imported on the first call (see ``_distances``), so
suites that never read a cloud do not load ``scipy.spatial``.

Maximal packings come from one farthest-point traversal.  Its insertion
radii are nonincreasing, so the packing at scale eps is a prefix of one
fixed ordering and the covering upper bounds are monotone in eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class MetricValidationError(ValueError):
    """Distance data is not a pseudo-metric."""


class SizeLimitError(ValueError):
    """Instance exceeds an enumeration budget."""


_EXHAUSTIVE_TRIANGLE_LIMIT = 200
_SAMPLED_TRIANGLES = 20000
_EXACT_COVER_LIMIT = 25
# relative tolerance of the pseudo-metric checks (see _tolerance)
_FP_TOL = 1e-9
# octaves below the top scale covered by the entropy integral's quadrature;
# it needs at least two nodes per octave
FLOOR_OCTAVES = 16
# largest block of a blocked reduction, in bytes: the distance reductions
# here and the Monte Carlo maxima of epkit.chaining
BLOCK_BYTES = 32 * 2 ** 20


def blocks(n: int, row_bytes: int, align: int = 1) -> list:
    """Slices covering range(n), each holding less than BLOCK_BYTES when one
    row takes row_bytes.  All but the last are BLOCK_BYTES // (2 row_bytes)
    rows wide, rounded down to a multiple of align but at least align (which
    may exceed the budget); the last absorbs the remainder, up to twice that.
    """
    width = max(BLOCK_BYTES // max(2 * row_bytes * align, 1), 1) * align
    count = max(n // width, 1)
    return [slice(i * width, n if i == count - 1 else (i + 1) * width)
            for i in range(count)]


@functools.cache
def _cdist():
    """scipy's cdist, imported once per process on first use: scipy.spatial
    takes longer to import than numpy, and only the point-cloud suites call
    it.  A function-level import in ``rows`` would cost its sys.modules
    lookup on every row read, thousands of times per traversal."""
    from scipy.spatial.distance import cdist
    return cdist


def _scale_exponent(*arrays) -> int:
    """The power of two e by which ``_distances`` scales a cloud: 0 while the
    largest |coordinate| of arrays lies in [2^-500, 2^500], so squared
    differences neither overflow nor underflow; otherwise the binary exponent
    of that coordinate, which scales it into [1/2, 1)."""
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    if top == 0.0 or 2.0 ** -500 <= top <= 2.0 ** 500:
        return 0
    return math.frexp(top)[1]


def _distances(a, b, exp: int) -> np.ndarray:
    """Euclidean distances between the rows of a 2^exp and b 2^exp, from
    cdist(a, b) scaled by 2^exp.  A power-of-two scaling is exact while the
    result stays normal, so for exp = 0 these are cdist's own bits and
    otherwise they round like cdist on a cloud of moderate scale."""
    d = _cdist()(a, b)
    if not exp:
        return d
    with np.errstate(over="ignore"):   # a true distance above the float max
        return np.ldexp(d, exp, out=d)


def nearest_distances(points, targets) -> np.ndarray:
    """Distance from each row of points to its nearest row of targets."""
    exp = _scale_exponent(points, targets)
    if exp:
        points, targets = np.ldexp(points, -exp), np.ldexp(targets, -exp)
    return np.concatenate([_distances(points[b], targets, exp).min(axis=1)
                           for b in blocks(len(points), 8 * len(targets))])


def _tolerance(scale: float) -> float:
    """Slack of the pseudo-metric checks at diameter scale: _FP_TOL (1 + scale)
    from 1 up, and the relative 2 _FP_TOL scale below, as strict as at 1."""
    return _FP_TOL * (scale + min(scale, 1.0))


def reject_nonfinite(rows) -> None:
    """Raise MetricValidationError naming the first row with a NaN or inf."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise MetricValidationError(f"non-finite entry in row {bad[0]} "
                                    "(counting from 0)")


class FiniteMetricSet:
    """A finite indexed point set with a pseudo-metric: a distance matrix,
    or a Euclidean point cloud (``from_points``) whose n×n matrix is never
    formed.  Both serve distance rows on demand through ``rows``.

    Points are identified by index 0..n-1; distinct points may lie at
    distance 0.  Non-finite input is rejected.  A matrix is checked for
    symmetry, a zero diagonal and nonnegativity; a cloud has them by
    construction, because cdist computes each pair on its own and
    x - y = -(y - x) exactly in IEEE arithmetic, so d(i, j) and d(j, i) are
    the same number.  A cloud whose coordinates are far from 1 is read
    through one exact power-of-two rescaling (``_scale_exponent``), so its
    distances neither vanish nor overflow before the true ones would.  Both
    forms check the triangle inequality, exhaustively for up to 200 points
    and on sampled triples beyond that.
    """

    def __init__(self, dmat=None, *, points=None):
        if points is None:
            dmat = np.asarray(dmat, dtype=float)
            if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
                raise MetricValidationError("distance matrix must be square")
        self.dmat = dmat
        self.points = points
        data = dmat if points is None else points
        self.n = len(data)
        reject_nonfinite(data)
        if points is not None:   # the cloud as _distances reads it
            self._exp = _scale_exponent(points)
            self._scaled = np.ldexp(points, -self._exp) if self._exp else points
        self._traversal = None
        self._validate()

    @classmethod
    def from_points(cls, points):
        """Euclidean metric on a point cloud (one point per row)."""
        return cls(points=np.atleast_2d(np.asarray(points, dtype=float)))

    def rows(self, idx) -> np.ndarray:
        """Distance rows of the points idx (an index, slice or index array):
        the matrix rows, or those of cdist(points, points) bit for bit when
        the cloud is not rescaled."""
        if self.points is None:
            return self.dmat[idx]
        block = self._scaled[idx]
        if block.ndim == 1:
            return _distances(block[None], self._scaled, self._exp)[0]
        return _distances(block, self._scaled, self._exp)

    def _validate(self):
        if self.points is not None:  # symmetric, zero diagonal: by construction
            if not np.isfinite(self.diameter):
                raise MetricValidationError("a distance overflows to inf")
            self._check_triangles(_tolerance(self.diameter))
            return
        d = self.dmat
        scale = float(d.max(initial=0.0))
        tol = _tolerance(scale)
        if d.min(initial=0.0) < -tol:
            raise MetricValidationError("negative distances")
        if np.abs(np.diag(d)).max(initial=0.0) > tol:
            raise MetricValidationError("nonzero diagonal")
        n = self.n
        for b in blocks(n, 8 * n):
            skew = d[b] - d[:, b].T
            if np.abs(skew, out=skew).max(initial=0.0) > tol:
                raise MetricValidationError("asymmetric distances")
        self._check_triangles(tol)

    def _check_triangles(self, tol):
        n = self.n
        # a sum of two distances above the float maximum reads inf, and the
        # triangle through it holds
        with np.errstate(over="ignore"):
            if n <= _EXHAUSTIVE_TRIANGLE_LIMIT:
                d = self.rows(slice(None))   # at most 320 KB
                for k in range(n):
                    if (d - (d[:, k:k + 1] + d[k:k + 1, :])).max(initial=0.0) > tol:
                        raise MetricValidationError(
                            f"triangle inequality fails through point {k}")
            else:
                rng = np.random.default_rng(0)
                i, j, k = rng.integers(0, n, size=(3, _SAMPLED_TRIANGLES))
                d = ((lambda a, b: self.dmat[a, b]) if self.points is None
                     else (lambda a, b: np.ldexp(np.linalg.norm(
                         self._scaled[a] - self._scaled[b], axis=1), self._exp)))
                if (d(i, j) - d(i, k) - d(k, j)).max(initial=0.0) > tol:
                    raise MetricValidationError("triangle inequality fails (sampled)")

    @property
    def diameter(self) -> float:
        """Largest distance, read during the farthest-point traversal."""
        self.farthest_point_order()
        return self._traversal[2]

    def min_positive_distance(self) -> float:
        """Smallest nonzero pairwise distance; 0.0 if all pairs coincide.

        It is the smallest positive traversal radius: the later of the two
        closest distinct points (or of the points they coincide with) is
        inserted at exactly their distance.
        """
        _, radii = self.farthest_point_order()
        pos = radii[1:][radii[1:] > 0]
        return float(pos.min()) if pos.size else 0.0

    # -- farthest-point traversal -------------------------------------------

    def farthest_point_order(self):
        """(order, radii): traversal starting at index 0, ties to lowest index.

        radii[i] is the distance of order[i] to the previously selected
        points (inf for the first).  The sequence is nonincreasing, so
        {order[j] : radii[j] > eps} is a maximal eps-packing for every eps.
        order is a permutation: once every point lies at distance 0 from the
        selection, the rest follow in index order with radius 0.  It reads
        each selected row once, and the diameter is the maximum of those rows
        (a point at distance 0 from a selected one has that one's row).
        """
        if self._traversal is not None:
            return self._traversal[:2]
        n = self.n
        order = np.empty(n, dtype=int)
        radii = np.zeros(n)
        mind = np.full(n, np.inf)   # -inf marks a selected point
        diameter = -np.inf
        for i in range(n):
            # argmax takes the lowest index on ties, so index 0 comes first
            nxt = int(np.argmax(mind))
            if mind[nxt] <= 0:
                order[i:] = np.flatnonzero(mind > -np.inf)
                break
            order[i], radii[i] = nxt, mind[nxt]
            row = self.rows(nxt)
            diameter = max(diameter, float(row.max()))
            np.minimum(mind, row, out=mind)
            mind[nxt] = -np.inf
        self._traversal = (order, radii, diameter if n else 0.0)
        return order, radii


def is_epsilon_net(net, eps: float, s: FiniteMetricSet) -> bool:
    """True iff every point of s lies in a closed eps-ball around some center."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    net = np.asarray(list(net), dtype=int)
    if s.n == 0:
        return True
    if net.size == 0:
        return False
    nearest = np.full(s.n, np.inf)
    for b in blocks(net.size, 8 * s.n):
        np.minimum(nearest, s.rows(net[b]).min(axis=0), out=nearest)
    return bool((nearest <= eps).all())


def maximal_packing(eps: float, s: FiniteMetricSet) -> np.ndarray:
    """Maximal pairwise->eps separated subset; by maximality an eps-net of s.
    It is the prefix of the farthest-point traversal with radii above eps."""
    order, _ = s.farthest_point_order()
    return order[:covering_counts(s, eps)].copy()


@dataclass
class CoveringBounds:
    eps: float
    lower: int
    upper: int
    witness: np.ndarray  # the upper-bound net (a maximal eps-packing)


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
    witness = maximal_packing(eps, s)
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
        for p in np.nonzero(s.rows(c) <= eps)[0]:
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


def entropy_integral(s: FiniteMetricSet, D: float, nodes: int = 64) -> float:
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
    if nodes < 2 * FLOOR_OCTAVES:
        raise ValueError(f"need at least {2 * FLOOR_OCTAVES} quadrature nodes, "
                         "2 per dyadic octave")
    if s.n <= 1:
        return 0.0
    _, radii = s.farthest_point_order()
    top = float(radii[1])  # entropy is 0 at eps >= second insertion radius
    if top <= 0:
        return 0.0
    floor = top * 2.0 ** (-FLOOR_OCTAVES)
    head = min(D, floor) * np.sqrt(np.log(s.n))
    if D <= floor:
        return float(head)
    grid = np.geomspace(floor, top, num=nodes)
    ent = entropies(covering_counts(s, grid[:-1]))  # at the left endpoints
    widths = np.clip(np.minimum(D, grid[1:]) - grid[:-1], 0.0, None)
    return float(np.sum(np.sqrt(ent) * widths) + head)


def dyadic_sums(s: FiniteMetricSet, D: float, K: int) -> list:
    """[dyadic_sum(s, D, k) for k = 0..K], the prefixes of one running sum."""
    if D <= 0:
        raise ValueError("D must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    scales = D * 2.0 ** (-np.arange(K))
    sums = [0.0]
    for eps_k, ent in zip(scales, entropies(covering_counts(s, scales))):
        sums.append(sums[-1] + eps_k * np.sqrt(ent))
    return [float(total) for total in sums]


def dyadic_sum(s: FiniteMetricSet, D: float, K: int) -> float:
    """sum_{k<K} eps_k sqrt(metric_entropy(eps_k)) at scales eps_k = D 2^-k."""
    return dyadic_sums(s, D, K)[-1]


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
