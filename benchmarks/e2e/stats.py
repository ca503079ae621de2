"""Order statistics and span arithmetic for the end-to-end benchmark.

Throughput is summarised as the median of per-round values with its
quartiles; latency pools every sample and reports the median plus the
highest percentile that still has at least :data:`MIN_BEYOND` samples
beyond it, so a tail figure never rests on a handful of points.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples above it.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    # The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``th."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    None when ``n`` is too small for even the median to qualify.
    """
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarize(values) -> dict:
    """Median and quartiles of per-round values."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def latency(samples, tail_p: float | None = None) -> dict:
    """Median and tail of pooled latency samples.

    The tail is at ``tail_p`` when given (it must leave ``MIN_BEYOND``
    samples beyond it), else at :func:`tail_percentile` of the sample
    count, or the maximum when there are too few samples for any
    ladder percentile.  Every qualifying ladder percentile is reported
    too, so the shape of the tail is on record.
    """
    samples = list(samples)
    n = len(samples)
    if tail_p is None or beyond(n, tail_p) < MIN_BEYOND:
        tail_p = tail_percentile(n)
    tail = percentile(samples, tail_p) if tail_p else max(samples)
    ladder = {str(p): percentile(samples, p) for p in TAIL_LADDER
              if beyond(n, p) >= MIN_BEYOND}
    return {"p50": percentile(samples, 50), "tail": tail,
            "tail_p": tail_p or 100.0, "n": n, "percentiles": ladder}


def self_times(events) -> dict[str, list[float]]:
    """Per span name, each span's self time in microseconds.

    Self time is the span's duration minus what its direct children
    cover.  A span's parent is the innermost earlier span that contains
    it; spans that merely overlap (concurrent client threads) are
    siblings, not parent and child.
    """
    spans = sorted(
        (e for e in events if e.ph == "X"), key=lambda e: (e.ts, -e.dur)
    )
    own = [span.dur for span in spans]
    stack: list[int] = []
    for index, span in enumerate(spans):
        end = span.ts + span.dur
        while stack:
            top = spans[stack[-1]]
            if top.ts + top.dur + 1e-6 >= end:
                break
            stack.pop()
        if stack:
            own[stack[-1]] -= span.dur
        stack.append(index)
    result: dict[str, list[float]] = {}
    for span, value in zip(spans, own):
        result.setdefault(span.name, []).append(max(0.0, value))
    return result
