"""Finite pseudo-metric sets: eps-nets, covering and packing numbers, metric
entropy and entropy integrals.

All nets are *internal*: centers are drawn from the point set itself.
Internal covering counts dominate ambient ones, so every upper bound computed
here is also an upper bound for the ambient-center formulation.

A set is a distance matrix or a Euclidean point cloud, and every distance is
read as rows on demand: a cloud's n×n matrix is never formed, so its memory
follows the block budget ``BLOCK_BYTES``, not n².  Every distance of a cloud
comes from one numpy kernel (``_sqsums``) that does the arithmetic of
scipy's ``cdist``: per pair, the squared coordinate differences added in
coordinate order, then the root, so its values are cdist's bit for bit and
no suite loads ``scipy.spatial``.

Maximal packings come from one farthest-point traversal (Gonzalez 1985).
Its insertion radii are nonincreasing, so the packing at scale eps is a
prefix of one fixed ordering and the covering upper bounds are monotone in
eps.

Windows (Elkan, ICML 2003).  Let r0(p) = d(p, 0), the first row read,
mind(p) the distance from p to the selection and r its maximum.  The next
center c has |r0(p) - r0(c)| <= d(p, c), so a point with |r0(p) - r0(c)| >
r + slack has d(p, c) >= r >= mind(p) and keeps its mind.  Sorted by r0,
the other points form one window, and a 2-D or 3-D cloud computes only
their distances to c.  The argument runs on the kernel's values before
they are scaled back; there a distance D of dim-vectors rounds by at
most (dim + 2) 2^-53 D + dim 2^-537 (the roundoffs of differences, squares,
sum and root, and sqrt(dim 2^-1074) from squares that underflow).  slack =
dim (2^-48 K + 2^-534), K >= r the largest r0, is more than twice what the
three distances and the window's rounded edges need.  Scaling back commutes
with the minimum but can merge values into one subnormal or inf, so mind
keeps a scaled twin, in key order so that a window is a slice of it: the
twin bounds the window, while the scaled-back mind alone decides the argmax
and the radii.

The eps-net check (``is_epsilon_net``) reads the same windows.  It takes
the points ``NET_BLOCK`` at a time in key order and computes a block's
distances only to the centers whose keys lie within w = eps + slack of the
block's keys.  A center c outside has |r0(p) - r0(c)| > w for every point p
of the block, so d(p, c) > eps, and the verdict is that of whole rows.
There d(p, c) <= r0(p) + r0(c) <= 2K, and the slack is still more than
twice what its rounding needs.  A rescaled cloud takes w in the scaled
domain, with eps as ldexp(eps, -exp).  Scaling back rounds a distance by at
most half a subnormal quantum, which can merge one just above eps into eps,
so w adds two quanta of the unscaled domain, 2^(-1073-exp).  The root and
the scaling back are monotone, so the check reduces squared sums and takes
the root of each block's minima only.

Diameter.  A point p at depth rho inside the convex hull is, for every q,
at least rho closer to q than the vertex v maximizing <x, u>, u the unit
vector along p - q: d(v, q) >= <v - q, u> >= <p - q, u> + rho = d(p, q) +
rho.  From ``HULL_REL`` S on, S the largest |coordinate|, rho dwarfs any
rounding (about 1e-15 S), so every point's largest computed distance is to
a point of ``_near_hull_rows``.  Both ends of the largest pair are thus
near-hull points, and the diameter of a 2-D or 3-D cloud is the largest
distance among them.  A matrix, whose triangle inequality holds only within
``_tolerance`` (checked on sampled triples above 200 points), and a cloud
in other dimensions read each selected row whole during the traversal, and
the diameter is their maximum.  Either way order, radii and diameter are
those of whole rows bit for bit.

Near-hull rows (after the extreme-point filter of Akl & Toussaint, IPL
1978).  Take the points extreme along the directions of a fixed mesh, a
regular 128-gon's in 2-D and a twice subdivided icosahedron's (162) in
3-D, and their centroid c.  The simplex spanned by c and the extreme
points of one mesh edge (2-D) or face (3-D) lies inside the hull, so a
point deeper than HULL_REL S in it is at least that deep in the hull, and
extreme along no direction.  A coarse mesh (an 8-gon, an icosahedron)
goes first, so the fine one reads only the few points it leaves.  A
simplex whose edge matrix E has ||E||_F ||E^-1||_F, a bound on its
condition number, above ``HULL_COND`` is skipped, which only keeps more
rows; below it, the rounding of its planes (about HULL_COND 2^-52
relative) moves a depth by less than 1e-11 S.
"""

from __future__ import annotations

import functools
import itertools
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
# absolute slack of the triangle checks on top of it: four subnormal quanta.
# A cloud's distances are rounded to a quantum when scaled back, so a
# triangle of subnormal distances can fail by up to 1.5 quanta
_TRIANGLE_QUANTA = 4 * 2.0 ** -1074
# octaves below the top scale covered by the entropy integral's quadrature,
# and its geometric nodes over them
FLOOR_OCTAVES = 16
NODES = 64
# largest block of a blocked reduction, in bytes: the distance reductions
# here and the Monte Carlo maxima of epkit.chaining
BLOCK_BYTES = 32 * 2 ** 20
# depth inside a cloud's convex hull, relative to its largest |coordinate|,
# from which a point is left out by _near_hull_rows
HULL_REL = 1e-9
# largest condition number (bound) of a simplex that _near_hull_rows tests
# points in
HULL_COND = 1e4
# distances per kernel call in _reduce_sqsums and the whole-row net check:
# two arrays of 256 KiB, which stay in a core's L2 cache, where one 16 MiB
# block took several times as long per distance
TILE = 2 ** 15
# consecutive points, in window order, that is_epsilon_net checks against one
# window of centers.  2-core VM, median of 30: cover's 8 scales on 5000
# uniform 2-D points take 10.3 ms at 128 and 10.5 at 256, dudley's 13 on
# 1000 points 5.7 and 7.7 ms; 64 was slower on both
NET_BLOCK = 128


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


def _sqsums(x, y) -> np.ndarray:
    """Squared Euclidean distances as cdist sums them.  x and y hold one
    coordinate per entry (floats, or arrays along their first axis) that
    broadcast against each other: points down one axis against points along
    another for all pairs, equal shapes for pairs one by one.  The squared
    differences are added up over the coordinates in order, so their roots
    are cdist's values bit for bit, the same IEEE operations in the same
    order.  It holds two arrays of the result's shape, within BLOCK_BYTES on
    the blocks of ``blocks``."""
    if not len(y):   # points without coordinates
        return np.zeros(np.broadcast_shapes(np.shape(x)[1:], np.shape(y)[1:]))
    out = np.subtract(x[0], y[0])
    out *= out
    for k in range(1, len(y)):
        d = np.subtract(x[k], y[k])
        d *= d
        out += d
    return out


def _root(sq: np.ndarray, exp: int) -> np.ndarray:
    """The distances of squared sums sq, in place: their roots scaled by
    2^exp.  A power-of-two scaling is exact while the result stays normal,
    so for exp = 0 these are cdist's own bits and otherwise they round like
    cdist on a cloud of moderate scale."""
    d = np.sqrt(sq, out=sq)
    if not exp:
        return d
    with np.errstate(over="ignore"):   # a true distance above the float max
        return np.ldexp(d, exp, out=d)


def _scale_exponent(*arrays) -> int:
    """The power of two e by which a cloud is scaled for its distances: 0
    while the largest |coordinate| of arrays lies in [2^-500, 2^500], so
    squared differences neither overflow nor underflow; otherwise the binary
    exponent of that coordinate, which scales it into [1/2, 1)."""
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    if top == 0.0 or 2.0 ** -500 <= top <= 2.0 ** 500:
        return 0
    return math.frexp(top)[1]


def _reduce_sqsums(xs, ys, reduce) -> np.ndarray:
    """reduce (np.min or np.max) of the squared distances from each point of
    xs over the points of ys, both one row per coordinate, computed TILE
    distances at a time.  The root and the scaling back are monotone, so
    the root of the result is the reduction of the distances."""
    step = max(TILE // max(ys.shape[1], 1), 1)
    if step >= xs.shape[1]:
        return reduce(_sqsums(xs[:, :, None], ys[:, None]), axis=1)
    return np.concatenate([
        reduce(_sqsums(xs[:, i:i + step, None], ys[:, None]), axis=1)
        for i in range(0, xs.shape[1], step)])


def nearest_distances(points, targets) -> np.ndarray:
    """Distance from each row of points to its nearest row of targets."""
    exp = _scale_exponent(points, targets)
    if exp:
        points, targets = np.ldexp(points, -exp), np.ldexp(targets, -exp)
    return _root(_reduce_sqsums(points.T, np.ascontiguousarray(targets.T), np.min),
                 exp)


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


@functools.cache
def _hull_meshes(dim: int) -> list:
    """The two meshes of ``_near_hull_rows``, coarse then fine: (directions,
    simplices), the unit directions and each simplex as a row of their
    indices.  In 2-D the vertices and edges of the regular 8- and 128-gons;
    in 3-D those of an icosahedron and of its second subdivision, whose edge
    midpoints, pushed onto the sphere, extend its 12 directions to 162."""
    if dim == 2:
        return [(np.column_stack([np.cos(angles), np.sin(angles)]),
                 np.column_stack([k, (k + 1) % m]))
                for m in (8, 128)
                for k in [np.arange(m)] for angles in [2 * math.pi * k / m]]
    g = (1 + 5 ** 0.5) / 2
    ico = [(a, b, 0.0) for a in (-1.0, 1.0) for b in (-g, g)]
    ico += [v[2:] + v[:2] for v in ico] + [v[1:] + v[:1] for v in ico]
    # its faces: the triples of vertices at the edge length 2
    faces = [f for f in itertools.combinations(range(12), 3)
             if all(abs(math.dist(ico[i], ico[j]) - 2.0) < 1e-9
                    for i, j in itertools.combinations(f, 2))]
    dirs = [np.array(v) / math.hypot(1.0, g) for v in ico]
    meshes = [(np.array(dirs), np.array(faces))]
    mids = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in mids:
            mids[key] = len(dirs)
            v = dirs[i] + dirs[j]
            dirs.append(v / np.linalg.norm(v))
        return mids[key]

    for _ in range(2):
        faces = [f for a, b, c in faces
                 for ab, bc, ca in [(mid(a, b), mid(b, c), mid(c, a))]
                 for f in ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))]
    return meshes + [(np.array(dirs), np.array(faces))]


def _simplex_planes(vertices: np.ndarray, center: np.ndarray):
    """(normals, heights) of the simplices spanned by center and each row of
    vertices (shape (F, dim, dim)), leaving out those whose edge matrix E
    has ||E||_F ||E^-1||_F, a bound on its condition number, above
    HULL_COND.  A point y, taken relative to center, lies at signed
    distance y @ normals[:, j, f] inside facet j < dim of simplex f, the
    facets through center, and at y @ normals[:, dim, f] + heights[f]
    inside the facet opposite center.  With T = E^-1, y = lambda @ E for
    lambda = y @ T: column j of T is normal to facet j, its norm the inverse
    of the height above it, and the opposite facet, where the lambdas sum
    to 1, has normal -(sum of T's columns)."""
    edges = vertices - center
    edges = edges[np.linalg.det(edges) != 0]   # no zero pivot for inv
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linalg.inv(edges)
        cond = np.sqrt((edges ** 2).sum(axis=(1, 2)) * (t ** 2).sum(axis=(1, 2)))
    t = t[cond <= HULL_COND]
    normals = np.concatenate([t, -t.sum(axis=2, keepdims=True)], axis=2)
    normals = normals.transpose(1, 2, 0)                 # (dim, dim + 1, F)
    inverse_heights = np.sqrt((normals ** 2).sum(axis=0))
    # C order: einsum runs several times slower on the transposed layout
    return (np.ascontiguousarray(normals / inverse_heights),
            1.0 / inverse_heights[-1])


def _near_hull_rows(cloud: np.ndarray):
    """Indices, ascending, of the rows of cloud within HULL_REL of its convex
    hull's boundary, and possibly some deeper ones (see the module
    docstring), or None outside 2 and 3 dimensions and below 4 points.  A
    row left out holds no linear functional's maximum (see
    ``epkit.chaining``) and no point's farthest distance."""
    m, dim = cloud.shape
    top = float(np.abs(cloud).max(initial=0.0))
    if dim not in (2, 3) or m < 4 or not 0.0 < top < math.inf:
        return None
    # an exact power-of-two rescaling, so the rows kept do not depend on scale
    x = np.ldexp(cloud, -math.frexp(top)[1])
    kept = np.arange(m)
    for dirs, simplices in _hull_meshes(dim):
        # a point left out is deep inside the hull, so extreme along no
        # direction; einsum rather than BLAS, whose threads can keep
        # spinning and slow the numpy work after it
        y = x[kept].T
        extreme = kept[np.einsum("kd,dp->kp", dirs, y).argmax(axis=1)]
        center = x[np.unique(extreme)].mean(axis=0)
        normals, heights = _simplex_planes(x[extreme[simplices]], center)
        for b in blocks(len(kept), 8 * normals[0].size):
            planes = np.einsum("djf,dp->jfp", normals, y[:, b] - center[:, None])
            depth = planes[dim] + heights[:, None]
            for j in range(dim):
                np.minimum(depth, planes[j], out=depth)
            kept[b] = np.where((depth > HULL_REL).any(axis=0), -1, kept[b])
        kept = kept[kept >= 0]
    return kept


class _Window(NamedTuple):
    """A cloud sorted by its window key r0 (see the module docstring)."""
    r0: np.ndarray       # each point's key, in index order
    perm: np.ndarray     # the stable argsort of r0
    keys: np.ndarray     # r0[perm]
    cols: np.ndarray     # the scaled cloud in the order perm, one row per
                         # coordinate
    slack: float         # dim (2^-48 K + 2^-534), K the largest key


class FiniteMetricSet:
    """A finite indexed point set with a pseudo-metric: a distance matrix,
    or a Euclidean point cloud (``from_points``) whose n×n matrix is never
    formed.  Both serve distance rows on demand through ``rows``.

    Points are identified by index 0..n-1; distinct points may lie at
    distance 0.  Non-finite input is rejected.  A matrix is checked for
    symmetry, a zero diagonal and nonnegativity; a cloud has them by
    construction, because ``_sqsums`` computes each pair on its own and
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
        if points is not None:   # the cloud as the kernel reads it
            self._exp = _scale_exponent(points)
            self._scaled = np.ldexp(points, -self._exp) if self._exp else points
            # one row per coordinate: the kernel reads these rows fastest
            self._coords = np.ascontiguousarray(self._scaled.T)
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
        return self.distances(idx, slice(None))

    def distances(self, idx, cols) -> np.ndarray:
        """Distances from the points idx to the points cols, each an index,
        slice or index array, a scalar index dropping its axis: the matrix
        entries, or cdist(points[idx], points[cols]) bit for bit when the
        cloud is not rescaled.  A cloud computes only these."""
        if self.points is None:
            return self.dmat[idx][..., cols]
        a, b = self._coords[:, idx], self._coords[:, cols]
        sq = _sqsums(a.reshape(len(a), -1, 1), b.reshape(len(b), 1, -1))
        return _root(sq.reshape(a.shape[1:] + b.shape[1:]), self._exp)

    @functools.cached_property
    def _window(self):
        """The _Window of a 2-D or 3-D cloud, read by the traversal and the
        net check; None for other sets, which read whole rows.  Its key is
        the distance to point 0 in the scaled domain."""
        if self.points is None or self.n == 0 or self._scaled.shape[1] not in (2, 3):
            return None
        coords = self._coords
        r0 = np.sqrt(_sqsums(coords[:, :1], coords))
        perm = np.argsort(r0, kind="stable")
        keys = r0[perm]
        return _Window(r0, perm, keys, coords[:, perm],
                       len(coords) * (2.0 ** -48 * keys[-1] + 2.0 ** -534))

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
        tol += _TRIANGLE_QUANTA
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
                     else (lambda a, b: _root(_sqsums(
                         self._coords[:, a], self._coords[:, b]), self._exp)))
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
        diameter = -np.inf
        windowed = self._window is not None
        if windowed:
            # the keys live in the scaled domain, where mind has its twin
            # kmind, kept in key order so that a window is a slice of it
            cloud = self._scaled
            r0, perm, keys, cols, slack = self._window
            key = r0.tolist()   # Python floats add faster than numpy scalars
            kmind = mind.copy()
            place = np.empty(n, dtype=int)
            place[perm] = np.arange(n)
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
                # no point outside |r0(p) - r0(nxt)| <= r + slack can move;
                # the left side of the next float up is the right side of
                # r0(nxt) + width, so one call finds both edges
                width = float(kmind.max() if self._exp else r) + slack
                lo, hi = keys.searchsorted(
                    (key[nxt] - width, math.nextafter(key[nxt] + width, math.inf))
                ).tolist()
                seg = kmind[lo:hi]
                row = _sqsums(cloud[nxt].tolist(), cols[:, lo:hi])
                np.minimum(seg, np.sqrt(row, out=row), out=seg)
                if not self._exp:
                    mind[perm[lo:hi]] = seg
                else:
                    with np.errstate(over="ignore"):
                        mind[perm[lo:hi]] = np.ldexp(seg, self._exp)
                kmind[place[nxt]] = -np.inf
            mind[nxt] = -np.inf
        if windowed:
            # the largest distance among the near-hull rows or, where no
            # such set is taken, in the selected rows read whole
            near = _near_hull_rows(cloud)
            ends, far = ((order[radii > 0], self._coords) if near is None
                         else (near, self._coords[:, near]))
            diameter = float(_root(_reduce_sqsums(
                self._coords[:, ends], far, np.max), self._exp).max())
        self._traversal = (order, radii, diameter if n else 0.0)
        return order, radii


def is_epsilon_net(net, eps: float, s: FiniteMetricSet) -> bool:
    """True iff every point of s lies in a closed eps-ball around some center.

    net holds indices of s; one outside 0..n-1 raises ValueError.  A 2-D or
    3-D cloud computes only the distances its windows leave open (see the
    module docstring); other sets compare every point with every center.
    Either way the verdict is that of whole rows bit for bit.
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
        step = max(TILE // s.n, 1)   # rows of centers, in cache
        for b in range(0, net.size, step):
            np.minimum(nearest, s.rows(net[b:b + step]).min(axis=0), out=nearest)
        return bool((nearest <= eps).all())
    # eps in the scaled domain, two subnormal quanta of the unscaled one
    # wider (scaling back can round a distance onto eps); an eps beyond every
    # scaled distance reads inf
    with np.errstate(over="ignore"):
        width = (float(np.ldexp(eps, -s._exp)) + math.ldexp(1.0, -1073 - s._exp)
                 + win.slack)
    centers = net[np.argsort(win.r0[net], kind="stable")]
    ckeys, ccols = win.r0[centers], s._coords[:, centers]
    # each block's window, the centers within width of its first and last
    # keys; the left side of the next float up is the right side of the last
    starts = np.arange(0, s.n, NET_BLOCK)
    lasts = win.keys[np.minimum(starts + NET_BLOCK, s.n) - 1]
    los = ckeys.searchsorted(win.keys[starts] - width).tolist()
    his = ckeys.searchsorted(np.nextafter(lasts + width, np.inf)).tolist()
    for b, lo, hi in zip(starts.tolist(), los, his):
        if lo == hi:
            return False
        nearest = _reduce_sqsums(win.cols[:, b:b + NET_BLOCK], ccols[:, lo:hi], np.min)
        if _root(nearest, s._exp).max() > eps:
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


def entropy_integral(s: FiniteMetricSet, D: float) -> float:
    """Upper Riemann sum of the square root of the metric entropy,
    entropies(covering_counts(s, eps)), over eps in (0, D], on ``NODES``
    nodes.

    Left endpoints on a geometric grid give an upper sum because the
    integrand is nonincreasing in eps.  The grid is anchored at the largest
    scale with nonzero entropy (the integrand vanishes above it), so raising
    D only appends nonnegative cell contributions and the result is monotone
    in D by construction.  The head below the finest node is bounded by its
    width times sqrt(log |s|), the largest entropy a finite set can have.
    """
    if D <= 0:
        raise ValueError("D must be positive")
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
    grid = np.geomspace(floor, top, num=NODES)
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
