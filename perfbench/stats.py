"""Order statistics shared by the workloads and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: tail percentiles considered, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: a tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it an anecdote, not a statistic
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest tail percentile with at least :data:`MIN_BEYOND`
    samples beyond it, as ``(pct, value, samples beyond)``; ``None``
    when the sample is too small for any of them."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        beyond = math.floor(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= MIN_BEYOND:
            return pct, percentile(values, pct), beyond
    return None
