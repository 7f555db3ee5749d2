"""Order statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics


def tail(values, q: float, lower_is_worse: bool = False) -> float:
    """Nearest-rank ``q`` percentile counted from the good end: for a
    latency the ``q`` quantile, for a rate the ``1 - q`` quantile."""
    ordered = sorted(values, reverse=lower_is_worse)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples lying beyond the ``q`` tail of ``n`` samples."""
    return n - max(1, math.ceil(q * n))


def median(values) -> float:
    return statistics.median(values)


def mean(values) -> float:
    """Timings are means: on a shared host whose speed shifts between
    phases, a run's median jumps between the phases' levels while its
    mean moves with their mix."""
    return statistics.fmean(values)
