"""The host-speed reference: a fixed pure-Python workload timed during a run.

The host's speed switches between fast and slow phases a few seconds long,
up to 2x apart, and the share of slow time drifts over minutes as other
tenants come and go.  So a run also times this fixed workload, every
``INTERVAL_S`` between ops, in a fresh process like the ops', and reports
every op time in reference units: the op's ms x ``REFERENCE_MS`` over the
reference time measured around the op (the median of the ``NEAREST``
timings closest to its midpoint).  An op that ran in a slow phase is
scaled by a reference that ran in the same phase.  The reference is no part
of the program, so a change to the program moves the op times and never
the reference.

    python3 -m bench.reference   # prints the median of 50 timings, in ms
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Optional

#: The reference's typical time on a 2-core x86-64 host (Python 3.11), in
#: ms.  Reported times read as the times on a host where the reference takes
#: this long.
REFERENCE_MS = 30.0

#: A run times the reference when at least this long has passed since the
#: last timing.
INTERVAL_S = 0.5

#: An op is scaled by the median of this many reference timings, the ones
#: closest in time to the op's midpoint.
NEAREST = 3

#: Objects the workload builds; each links to ``_FANOUT`` others.
_NODES = 12000
_FANOUT = (1, 7, 31, 127)


def reference_work() -> float:
    """Build and walk a fixed object graph, as a points-to solve does; its ms."""
    started = time.perf_counter()
    nodes = [{"id": index, "out": [], "seen": set()} for index in range(_NODES)]
    for index, node in enumerate(nodes):
        for step in _FANOUT:
            node["out"].append(nodes[(index * step + 3) % _NODES])
    for round_index in range(3):
        seen = set()
        stack = [nodes[0]]
        while stack:
            node = stack.pop()
            if node["id"] in seen:
                continue
            seen.add(node["id"])
            node["seen"].add(round_index)
            stack.extend(node["out"])
    return 1000.0 * (time.perf_counter() - started)


class Reference:
    """Times ``reference_work`` in fresh children of a zygote, at most once
    per ``INTERVAL_S``; ``at`` holds each timing's midpoint
    (``time.perf_counter``), ``samples`` its ms."""

    def __init__(self, zygote) -> None:
        self.zygote = zygote
        self.at: List[float] = []
        self.samples: List[float] = []
        self._last: Optional[float] = None

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        if self._last is None or now - self._last >= INTERVAL_S:
            ms = self.zygote.call(reference_work)
            self._last = time.perf_counter()
            self.at.append(self._last - ms / 2000.0)
            self.samples.append(ms)


def around(at: List[float], samples: List[float], when: float) -> float:
    """The reference time around ``when``: the median of the ``NEAREST``
    timings closest to it (``at`` ascending)."""
    index = bisect.bisect_left(at, when)
    low, high = index, index
    while high - low < NEAREST and (low > 0 or high < len(at)):
        if high >= len(at) or (low > 0 and when - at[low - 1] <= at[high] - when):
            low -= 1
        else:
            high += 1
    return statistics.median(samples[low:high])


if __name__ == "__main__":
    print(f"{statistics.median(reference_work() for _ in range(50)):.3f}")
