"""Summary statistics shared by the benchmark runner and the steadiness check."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (p, value).

    Nearest-rank definition: the p-th percentile is the k-th smallest sample,
    k = ceil(p/100 * n), and n - k samples lie beyond it.  Returns None when
    even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= MIN_BEYOND:
            best = (p, ordered[k - 1])
    return best


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (needs two values)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
