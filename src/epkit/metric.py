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

Maximal packings come from one farthest-point traversal (Gonzalez 1985).
Its insertion radii are nonincreasing, so the packing at scale eps is a
prefix of one fixed ordering and the covering upper bounds are monotone in
eps.

Windows (Elkan, ICML 2003).  Let r0(p) = d(p, 0), the first row read,
mind(p) the distance from p to the selection and r its maximum.  The next
center c has |r0(p) - r0(c)| <= d(p, c), so a point with |r0(p) - r0(c)| >
r + slack has d(p, c) >= r >= mind(p) and keeps its mind.  Sorted by r0,
the other points form one window, and a 2-D or 3-D cloud computes only
their distances to c.  The argument runs on cdist's values before
``_distances`` scales them back; there a distance D of dim-vectors rounds
by at most (dim + 2) 2^-53 D + dim 2^-537 (the roundoffs of differences,
squares, sum and root, and sqrt(dim 2^-1074) from squares that underflow).
slack = dim (2^-48 K + 2^-534), K >= r the largest r0, is more than twice
what the three distances and the window's rounded edges need.  Scaling
back commutes with the minimum but can merge values into one subnormal or
inf, so mind keeps a scaled twin that bounds the window, while the
scaled-back mind alone decides the argmax and the radii.

The eps-net check (``is_epsilon_net``) reads the same windows.  It takes
the points ``NET_BLOCK`` at a time in key order and computes a block's
distances only to the centers whose keys lie within w = eps + slack of the
block's keys.  A center c outside has |r0(p) - r0(c)| > w for every point p
of the block, so d(p, c) > eps, and the verdict is that of whole rows.
There d(p, c) <= r0(p) + r0(c) <= 2K, and the slack is still more than
twice what its rounding needs.  A rescaled cloud takes w in the scaled
domain, with eps as ldexp(eps, -exp).  Scaling back rounds a distance by at
most half a subnormal quantum, which can merge one just above eps into eps,
so w adds two quanta of the unscaled domain, 2^(-1073-exp).

Diameter.  A point p at depth rho inside the convex hull is, for every q,
at least rho closer to q than the vertex v maximizing <x, u>, u the unit
vector along p - q: d(v, q) >= <v - q, u> >= <p - q, u> + rho = d(p, q) +
rho.  From ``HULL_REL`` S on, S the largest |coordinate|, rho dwarfs any
rounding (about 1e-15 S), so every point's largest computed distance is to
a point of ``_near_hull_rows``.  Both ends of the largest pair are thus
near-hull points, and the diameter of a 2-D or 3-D cloud is the largest
distance among them; where no such set is taken, it is the largest in the
selected rows, read whole after the traversal.  A matrix, whose triangle
inequality holds only within ``_tolerance`` (checked on sampled triples
above 200 points), and a cloud in other dimensions read each selected row
whole during the traversal, and the diameter is their maximum.  Either way
order, radii and diameter are those of whole rows bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MetricValidationError(ValueError):
    """Distance data is not a pseudo-metric."""


_EXHAUSTIVE_TRIANGLE_LIMIT = 200
_SAMPLED_TRIANGLES = 20000
# relative tolerance of the pseudo-metric checks (see _tolerance)
_FP_TOL = 1e-9
# octaves below the top scale covered by the entropy integral's quadrature;
# it needs at least two nodes per octave
FLOOR_OCTAVES = 16
# largest block of a blocked reduction, in bytes: the distance reductions
# here and the Monte Carlo maxima of epkit.chaining
BLOCK_BYTES = 32 * 2 ** 20
# depth inside a cloud's convex hull, relative to its largest |coordinate|,
# from which a point is left out by _near_hull_rows
HULL_REL = 1e-9
# consecutive points, in window order, that is_epsilon_net checks against one
# window of centers: the fastest of 32 to 1024 on 5000 uniform 2-D points
# (2-core VM, cover's 8 scales: 12-13 ms; 13-18 ms at 128 and 512, 27-29
# ms at 32 and 1024)
NET_BLOCK = 256


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


def _near_hull_rows(cloud: np.ndarray):
    """Indices, ascending, of the rows of cloud within HULL_REL of its convex
    hull's boundary, or None outside 2 and 3 dimensions, below 4 points, and
    when qhull fails, returns non-finite facets or leaves out one of its own
    vertices.  A deeper row holds no linear functional's maximum (see
    ``epkit.chaining``) and no point's farthest distance."""
    m, dim = cloud.shape
    top = float(np.abs(cloud).max(initial=0.0))
    if dim not in (2, 3) or m < 4 or not 0.0 < top < math.inf:
        return None
    # an exact power-of-two rescaling: qhull failed on 2-D clouds at 1e200
    # and on 3-D clouds from 1e100
    x = np.ldexp(cloud, -math.frexp(top)[1])
    from scipy.spatial import ConvexHull, QhullError   # see _cdist

    try:
        hull = ConvexHull(x)
    except QhullError:
        return None
    if not np.isfinite(hull.equations).all():
        return None
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    depth = np.empty(m)
    for b in blocks(m, 8 * len(offsets)):
        depth[b] = (x[b] @ normals.T + offsets).max(axis=1)
    near = depth >= -HULL_REL
    return np.flatnonzero(near) if near[hull.vertices].all() else None


class _Window(NamedTuple):
    """A cloud sorted by its window key r0 (see the module docstring)."""
    r0: np.ndarray       # each point's key, in index order
    perm: np.ndarray     # the stable argsort of r0
    keys: np.ndarray     # r0[perm]
    ordered: np.ndarray  # the scaled cloud in the order perm
    slack: float         # dim (2^-48 K + 2^-534), K the largest key


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

    @functools.cached_property
    def _window(self):
        """The _Window of a 2-D or 3-D cloud, read by the traversal and the
        net check; None for other sets, which read whole rows.  Its key is
        the distance to point 0 in the scaled domain of ``_distances``."""
        if self.points is None or self.n == 0 or self._scaled.shape[1] not in (2, 3):
            return None
        cloud = self._scaled
        r0 = _cdist()(cloud[:1], cloud)[0]
        perm = np.argsort(r0, kind="stable")
        keys = r0[perm]
        return _Window(r0, perm, keys, cloud[perm],
                       cloud.shape[1] * (2.0 ** -48 * keys[-1] + 2.0 ** -534))

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
        selection, the rest follow in index order with radius 0.

        A 2-D or 3-D cloud reads only windows of the selected rows (see the
        module docstring).  Other sets read them whole, and the diameter is
        their maximum (a point at distance 0 from a selected one has that
        one's row).
        """
        if self._traversal is not None:
            return self._traversal[:2]
        n = self.n
        order = np.empty(n, dtype=int)
        radii = np.zeros(n)
        mind = np.full(n, np.inf)   # -inf marks a selected point
        diameter, smind = -np.inf, mind
        windowed = self._window is not None
        if windowed:
            # the keys live in the scaled domain, where mind has its twin smind
            cloud = self._scaled
            r0, perm, keys, ordered, slack = self._window
            smind = mind.copy() if self._exp else mind
        for i in range(n):
            # argmax takes the lowest index on ties, so index 0 comes first
            nxt = int(mind.argmax())
            r = mind[nxt]
            if r <= 0:
                order[i:] = np.flatnonzero(mind > -np.inf)
                break
            order[i], radii[i] = nxt, r
            if not windowed:
                row = self.rows(nxt)
                diameter = max(diameter, float(row.max()))
                np.minimum(mind, row, out=mind)
            else:
                # no point outside |r0(p) - r0(nxt)| <= r + slack can move
                width = float(r if smind is mind else smind.max()) + slack
                lo = int(keys.searchsorted(r0[nxt] - width, side="left"))
                hi = int(keys.searchsorted(r0[nxt] + width, side="right"))
                idx = perm[lo:hi]
                row = _cdist()(cloud[nxt:nxt + 1], ordered[lo:hi])[0]
                smind[idx] = np.minimum(smind[idx], row, out=row)
                if smind is not mind:
                    with np.errstate(over="ignore"):
                        mind[idx] = np.ldexp(smind[idx], self._exp)
            mind[nxt] = smind[nxt] = -np.inf
        if windowed:
            # the near-hull set comes after the loop: its matrix product can
            # leave OpenBLAS threads spinning, which slowed the loop's steps
            # by about 1.6x on two cores.  Without it, every selected row is
            # read whole
            near = _near_hull_rows(cloud)
            ends, cols = ((order[radii > 0], cloud) if near is None
                          else (near, cloud[near]))
            diameter = max(float(_distances(cloud[ends[b]], cols, self._exp).max())
                           for b in blocks(len(ends), 8 * len(cols)))
        self._traversal = (order, radii, diameter if n else 0.0)
        return order, radii


def is_epsilon_net(net, eps: float, s: FiniteMetricSet) -> bool:
    """True iff every point of s lies in a closed eps-ball around some center.

    net holds indices of s; one outside 0..n-1 raises ValueError.  A 2-D or
    3-D cloud computes only the distances its windows leave open (see the
    module docstring); other sets read the centers' rows whole.  Either way
    the verdict is that of whole rows bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    net = np.asarray(net, dtype=int)
    if net.size and not 0 <= net.min() <= net.max() < s.n:
        raise ValueError(f"net indices must lie in 0..{s.n - 1}")
    if s.n == 0:
        return True
    if net.size == 0:
        return False
    win = s._window
    if win is None:
        nearest = np.full(s.n, np.inf)
        for b in blocks(net.size, 8 * s.n):
            np.minimum(nearest, s.rows(net[b]).min(axis=0), out=nearest)
        return bool((nearest <= eps).all())
    # eps in the scaled domain, two subnormal quanta of the unscaled one
    # wider (scaling back can round a distance onto eps); an eps beyond every
    # scaled distance reads inf
    with np.errstate(over="ignore"):
        width = (float(np.ldexp(eps, -s._exp)) + math.ldexp(1.0, -1073 - s._exp)
                 + win.slack)
    centers = net[np.argsort(win.r0[net], kind="stable")]
    ckeys, cpts = win.r0[centers], s._scaled[centers]
    for b in range(0, s.n, NET_BLOCK):
        pts, k = win.ordered[b:b + NET_BLOCK], win.keys[b:b + NET_BLOCK]
        lo = int(ckeys.searchsorted(k[0] - width, side="left"))
        hi = int(ckeys.searchsorted(k[-1] + width, side="right"))
        if lo == hi:
            return False
        nearest = np.full(len(pts), np.inf)
        for c in blocks(hi - lo, 8 * len(pts)):   # centers, under BLOCK_BYTES
            d = _distances(pts, cpts[lo:hi][c], s._exp)
            np.minimum(nearest, d.min(axis=1), out=nearest)
        if (nearest > eps).any():
            return False
    return True


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


def entropy_integral(s: FiniteMetricSet, D: float, nodes: int = 64) -> float:
    """Upper Riemann sum of the square root of the metric entropy,
    entropies(covering_counts(s, eps)), over eps in (0, D].

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
    """sum_{k<K} eps_k sqrt(H(eps_k)) at scales eps_k = D 2^-k, H the metric
    entropy entropies(covering_counts(s, eps))."""
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
