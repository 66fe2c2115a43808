"""Exact percentiles over per-request latency samples.

Every timed request keeps its own sample, so a percentile here is computed
from the data, not read off a histogram bucket bound.  The interpolation
is the linear ("inclusive") rule of ``statistics.quantiles(...,
method="inclusive")``.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Fewer samples than this and only the median is reported: a p99 over a
#: handful of samples is just their maximum, not a tail.
MIN_TAIL_SAMPLES = 40


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    data = sorted(values)
    position = (len(data) - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(data) - 1)
    fraction = position - lo
    return data[lo] + (data[hi] - data[lo]) * fraction


def summarize(values_s: Sequence[float]) -> dict:
    """Median and p99 in milliseconds, with the sample count each rests
    on; ``p99_ms`` is ``None`` below :data:`MIN_TAIL_SAMPLES` samples."""
    n = len(values_s)
    if n == 0:
        return {"n": 0, "p50_ms": None, "p90_ms": None, "p99_ms": None}
    ms = [v * 1000.0 for v in values_s]
    tail = n >= MIN_TAIL_SAMPLES
    return {
        "n": n,
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90) if tail else None,
        "p99_ms": percentile(ms, 99) if tail else None,
        "max_ms": max(ms),
    }


def late_share(values_s: Sequence[float], threshold_s: float) -> float:
    """Share of samples at or above ``threshold_s``."""
    if not values_s:
        return 0.0
    return sum(1 for v in values_s if v >= threshold_s) / len(values_s)
