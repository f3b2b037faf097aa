"""Order statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def beyond(values, p: float) -> int:
    """How many samples lie above the nearest-rank percentile's rank."""
    return len(values) - math.ceil(p / 100 * len(values))


def spread(values) -> float:
    """Interquartile distance as a share of the median, with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
