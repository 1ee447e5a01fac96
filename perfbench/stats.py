"""Summary statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(values):
    """(p, value, n) for the highest percentile in PERCENTILES that has at
    least ten samples beyond it, by nearest rank; p and value are None when
    even the median lacks ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    best = (None, None, n)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = (p, ordered[max(math.ceil(p / 100.0 * n), 1) - 1], n)
    return best


def share(part, base):
    """part / base, 0 when nothing was attempted (the base is reported
    beside it, so 0/0 is never mistaken for a measured 0)."""
    return part / base if base else 0.0


def describe(values, unit):
    """'median UNIT (n=N, pP V UNIT)' with the tail percentile when one exists."""
    p, v, n = tail_percentile(values)
    tail = f"p{p:g} {v:.6g} {unit}" if p is not None else \
        "no percentile has >=10 samples beyond it"
    return f"{statistics.median(values):.6g} {unit} (n={n}, {tail})"
