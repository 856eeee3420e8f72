"""Order statistics the benchmark reports: percentiles with their sample count."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple


class Percentile(NamedTuple):
    value: float
    count: int  # samples the percentile was taken over
    beyond: int  # samples strictly above the value


def percentile(values, q: float) -> Percentile:
    """The q-th percentile (0..100) by linear interpolation between order
    statistics, as numpy's default method computes it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return Percentile(value, len(xs), sum(1 for x in xs if x > value))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
