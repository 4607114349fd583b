"""Small statistics helpers shared by the benchmark and its tests."""

import math
import statistics

# A percentile is reported only if at least this many samples lie
# beyond it; otherwise its value rests on a handful of outliers.
MIN_BEYOND = 10


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank `q`-th percentile of `values`, or None when fewer
    than `min_beyond` samples lie strictly above its rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
