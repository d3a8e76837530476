"""Medians, percentiles and spreads with sample-count discipline.

Every timing the benchmark prints goes through :func:`percentile`, which
refuses to report a percentile that has fewer than ``min_beyond`` samples
beyond it: a "p95" over 24 samples is the second-largest value and says
nothing about the tail.  Operations that failed, were refused or timed out
carry no latency; they are counted as samples larger than every measured
one, so a failure can only push a percentile up and never improves it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples required beyond a reported percentile (``choosing-metrics`` §1).
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(
    samples: Sequence[float],
    q: float,
    failed: int = 0,
    min_beyond: int = MIN_SAMPLES_BEYOND,
) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank rule.

    ``failed`` operations rank above every measured sample.  Raises
    :class:`InsufficientSamples` when fewer than ``min_beyond`` samples lie
    beyond the percentile, or when the percentile falls on a failed
    operation (there is no finite value to report).
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    total = len(samples) + failed
    rank = max(1, math.ceil(total * q / 100.0))  # 1-based nearest rank
    if total - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} over {total} samples leaves {total - rank} beyond it; "
            f"{min_beyond} are required"
        )
    if rank > len(samples):
        raise InsufficientSamples(
            f"p{q:g} falls on one of the {failed} failed operations"
        )
    return sorted(samples)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median of run-level values (no discipline: a median over the
    benchmark's own repetitions is a summary, not a latency claim)."""
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0
