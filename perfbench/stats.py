"""Order statistics for the benchmark's samples.

A median is always reported with its sample count.  A tail percentile is
reported only when at least :data:`MIN_BEYOND` samples lie beyond it;
with fewer, one slow sample would move it, so :func:`percentile` refuses.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples rank above the one returned.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it;"
            f" {MIN_BEYOND} are needed")
    return sorted(samples)[rank - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else float("inf")}
