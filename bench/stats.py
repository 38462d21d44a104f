"""Sample summaries: a median plus the highest percentile the sample
count supports.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; with fewer, the reported tail is one or two outliers
and does not repeat from run to run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Percentiles tried, highest first.
LADDER = (99.9, 99.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """Nearest rank of a percentile (99.9 % of 10 000 is 9 990, which
    binary floating point would otherwise round up from 9990.000...02)."""
    return math.ceil(round(pct * count / 100.0, 9))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered), max(1, _rank(pct, len(ordered)))) - 1]


def supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples
    beyond it in a sample of ``count`` (None below the ladder)."""
    for pct in LADDER:
        if count - _rank(pct, count) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """``{"n", "median", "tail_pct", "tail"}`` of a sample.

    ``tail_pct`` is :func:`supported_percentile` of the count and
    ``tail`` its value (both None when the sample is too small).
    """
    ordered = sorted(samples)
    pct = supported_percentile(len(ordered))
    return {
        "n": len(ordered),
        "median": statistics.median(ordered) if ordered else None,
        "tail_pct": pct,
        "tail": percentile(ordered, pct) if pct is not None else None,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def summarize_us(seconds: Sequence[float]) -> Dict[str, object]:
    """:func:`summarize` of a latency sample taken in seconds, with
    its median and tail in microseconds."""
    summary = summarize(seconds)
    for key in ("median", "tail"):
        if summary[key] is not None:
            summary[key] *= 1e6
    return summary


def percentile_or_none(samples: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile if the sample supports it, else None."""
    ordered = sorted(samples)
    supported = supported_percentile(len(ordered))
    if supported is None or supported < pct:
        return None
    return percentile(ordered, pct)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of
    the median — the steadiness measure the bounds are judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
