"""Order statistics used by the reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def nearest_rank(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile by nearest rank: the smallest sample with at
    least ``share`` of the samples at or below it (with fewer than 100
    samples, the 0.99 quantile is the largest sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
