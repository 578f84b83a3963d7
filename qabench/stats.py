"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``q`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
