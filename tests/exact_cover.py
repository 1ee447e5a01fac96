"""The exact covering number of a small finite metric set, by branch and
bound: the test oracle for the farthest-point packing sandwich
|packing(2 eps)| <= N(eps) <= |packing(eps)| of ``epkit.metric``, and the
closed-form Euclidean ball covering bound that exact covers of sampled ball
subsets are checked against."""

import numpy as np

from epkit import metric


class SizeLimitError(ValueError):
    """Instance exceeds an enumeration budget."""


_EXACT_COVER_LIMIT = 25


def exact_covering_number(eps: float, s: metric.FiniteMetricSet) -> int:
    """Exact minimal internal eps-net cardinality by branch-and-bound search.

    Only for small instances (|s| <= 25): the oracle against which the tests
    check the greedy packing sandwich.
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


def euclidean_ball_covering_bound(R: float, eps: float, dim: int) -> float:
    """Covering bound (1 + 2R/eps)^dim for the Euclidean R-ball in dim dims."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float((1.0 + 2.0 * R / eps) ** dim)
