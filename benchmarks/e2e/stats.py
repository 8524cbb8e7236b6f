"""The tail rule: the highest percentile with at least ten samples beyond it."""

from __future__ import annotations

import statistics

#: samples that must lie beyond the reported tail value
BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that still
    has :data:`BEYOND` samples above it.

    Never below the median: with fewer than 21 samples the rule would
    otherwise pick a value in the lower half, so the median (percentile
    50) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - BEYOND
    if index <= (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n
