"""Order statistics used everywhere a timing is reported."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def describe(values: Sequence[float]) -> Dict[str, float]:
    """The numbers printed beside a median: n, quartiles, max."""
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "max": float(max(values)),
    }
