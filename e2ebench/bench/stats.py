"""Percentiles that carry their sample counts, and run-to-run spreads."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly above it; below that it is noise, not a tail.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating between closest ranks.

    Matches ``statistics.quantiles(..., method="inclusive")`` at the cut
    points: the 0th percentile is the minimum, the 100th the maximum.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0-100, got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-th percentile's position."""
    if count == 0:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def has_tail(count: int, q: float, minimum: int = MIN_SAMPLES_BEYOND) -> bool:
    """Whether ``count`` samples support a ``q``-th percentile."""
    return samples_beyond(count, q) >= minimum


@dataclass(frozen=True)
class Timing:
    """A percentile of a timing sample, with the sample it came from."""

    value: float
    q: float
    count: int

    @property
    def supported(self) -> bool:
        """True when the sample leaves enough points beyond the percentile."""
        return self.q <= 50.0 or has_tail(self.count, self.q)


def timing(values: Sequence[float], q: float) -> Optional[Timing]:
    """``Timing`` of the ``q``-th percentile, or ``None`` for an empty sample."""
    if not values:
        return None
    return Timing(value=percentile(values, q), q=q, count=len(values))


@dataclass(frozen=True)
class Spread:
    """Median, quartiles and quartile spread of one metric over several runs."""

    median: float
    q1: float
    q3: float
    count: int

    @property
    def relative(self) -> float:
        """Inter-quartile distance as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else float("inf")
        return (self.q3 - self.q1) / abs(self.median)


def spread(values: Sequence[float]) -> Spread:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two runs")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Spread(median=statistics.median(values), q1=q1, q3=q3,
                  count=len(values))
