"""Order statistics used by every report."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of *n*
    samples beyond it, or ``None`` when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        # the epsilon absorbs float error: 10000 samples leave 10 beyond p99.9
        if n * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND:
            best = p
    return best


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
