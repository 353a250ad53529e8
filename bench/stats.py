"""Small order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics


def tail_percentile(values, beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile p that still has at least `beyond` values
    strictly after it in sorted order, with its nearest-rank value.  None when
    there are too few values for such a percentile to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
