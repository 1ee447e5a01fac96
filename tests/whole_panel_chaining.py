"""The chaining Monte Carlo checks as they were before their noise was drawn
a block at a time: each draws its whole (n_samples, dim) noise panel at
once and hands it to the panel form of ``sample_maxima``.  The test oracle
for the streamed checks of ``epkit.chaining``, whose estimates must match
these bit for bit.  ``RowStream`` hands a fixed panel to the streamed
``chaining.sample_maxima``."""

import numpy as np

from epkit import metric
from epkit.chaining import (FULL_CONST, HULL_ALIGN, STAGE1_CONST, CanonicalProcess,
                            DenseSupCheck, DyadicNets, MgfRow, _cloud,
                            _declared_diameter, chi_mean)
from epkit.gaussian import McEstimate
from epkit.rng import derive_rng

BLAS_ALIGN = 1024   # noise rows


class RowStream:
    """A stand-in for a check's generator that hands out the rows of a fixed
    (n, dim) noise panel in order, as ``standard_normal((rows, dim))``
    calls would hand out those of one whole draw."""

    def __init__(self, noise: np.ndarray):
        self.noise, self.drawn = noise, 0

    def standard_normal(self, shape):
        rows, dim = shape
        if dim != self.noise.shape[1] or self.drawn + rows > len(self.noise):
            raise ValueError(f"{shape} past the panel's {self.noise.shape}")
        self.drawn += rows
        return self.noise[self.drawn - rows:self.drawn].copy()


def sample_maxima(scaled: np.ndarray, noise: np.ndarray, rows=None) -> np.ndarray:
    """For each noise row w, the maximum of scaled @ w over rows (all rows
    by default), computed one block of noise rows at a time.

    The values are those of (scaled @ noise[b].T)[rows].max(axis=0) over
    the blocks b bit for bit, and so those of the whole product where the
    module docstring says.  A block of a multiple of 8 noise rows multiplies
    only the rows near the convex hull of scaled[rows], three or more: a
    row deeper inside cannot hold a maximum, and a product of two or more
    rows rounds each as the product of every row does.  Any other block,
    and every block where no hull is taken, multiplies every row of scaled
    and takes the subset afterwards.
    """
    blocks = metric.blocks(len(noise), 8 * len(scaled), align=BLAS_ALIGN)
    near = None
    if any((b.stop - b.start) % HULL_ALIGN == 0 for b in blocks):
        cloud = scaled if rows is None else scaled[rows]
        idx = metric._near_hull_rows(cloud)
        near = None if idx is None else cloud[idx]
    out = np.empty(len(noise))
    for b in blocks:
        w = noise[b].T
        if near is None or w.shape[1] % HULL_ALIGN:
            x = scaled @ w
            out[b] = (x if rows is None else x[rows]).max(axis=0)
        else:
            out[b] = (near @ w).max(axis=0)
    return out


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
    e = np.empty(n_samples)   # each lambda's exponentials, formed in place
    for (i, j) in pairs:
        z = proc.sigma * (points[i] - points[j]) @ noise.T
        d = ms.distances(i, j)
        for lam in lambdas:
            bound = float(np.exp(0.5 * lam ** 2 * proc.sigma ** 2 * d ** 2))
            with np.errstate(over="ignore"):
                np.multiply(z, lam, out=e)
                np.exp(e, out=e)
            if not np.isfinite(e).all():
                rows.append(MgfRow(i, j, lam, np.inf, np.inf, bound, overflow=True))
                continue
            est = McEstimate.from_samples(e)
            rows.append(MgfRow(i, j, lam, est.mean, est.stderr, bound))
    return float(min(r.margin for r in rows)), rows


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
