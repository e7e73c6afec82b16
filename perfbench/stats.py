"""Summary statistics used to report timings and run-to-run spreads."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
_TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it, and its value.

    None when the samples are too few for any percentile on the ladder.
    """
    values = sorted(values)
    n = len(values)
    for p in _TAIL_LADDER:
        if math.floor(n * (1.0 - p / 100.0) + 1e-9) >= _TAIL_MIN_BEYOND:
            return p, float(statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1])
    return None
