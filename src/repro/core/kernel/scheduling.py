"""Scheduling policies: who owns the solver's worklist, and in what order.

The fixed-point iteration of :class:`~repro.core.solver.SkipFlowSolver` is
correct under *any* fair schedule: value states only move up the lattice and
the transfer functions are monotone, so the Kleene iteration converges to
the same least fixed point no matter which pending flow is processed next
(the classic chaotic-iteration result).  What the schedule *does* change is
the amount of work spent getting there — how often a flow is re-processed
before its inputs have settled — which is exactly what the solver's
machine-independent ``steps``/``joins`` counters measure.

A scheduling policy owns the container behind the worklist.  The
solver keeps the intrusive ``in_worklist`` de-duplication bit on each flow
(a flow is pushed at most once until popped), so policies only decide
*order*; they never see duplicates.  The fairness contract is that every
pushed flow is eventually popped — all built-ins drain their containers
completely, which trivially satisfies it and preserves the termination
argument (see :mod:`repro.core.kernel`).

Built-ins:

``fifo``
    A plain double-ended queue, popped oldest-first.  This is the seed
    solver's schedule and the default everywhere: with it, results are
    bit-identical to the seed down to solver step counts.
``degree``
    A max-priority queue on the flow's out-degree (use + observe +
    predicate edges) *at push time*, ties broken by push order.  Hub flows
    — fields feeding many loads, parameters fanning into many uses — are
    processed first, so their dependents see a settled state earlier.

The set is closed: the CLI, the engine, and
:class:`~repro.core.kernel.policy.SolverPolicy` validation all resolve names
through :func:`make_scheduling_policy` / :func:`available_scheduling_policies`,
and the arena kernel mirrors each policy over integer flow ids.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Tuple, Union

from repro.core.flows import Flow


class FifoScheduling:
    """The seed schedule: a queue popped oldest-first (bit-identical default)."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[Flow] = deque()

    def push(self, flow: Flow) -> None:
        self._queue.append(flow)

    def pop(self) -> Flow:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class DegreeScheduling:
    """Highest out-degree first: settle hub flows before their dependents.

    The priority is the flow's total fan-out (use, observe, and predicate
    edges) at push time; linking can grow a flow's fan-out afterwards, but
    re-keying on every edge addition would cost more than the stale priority
    ever loses.  Ties break by push order, which keeps the schedule fully
    deterministic (flows themselves are never compared).
    """

    name = "degree"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Flow]] = []
        self._pushes = 0

    @staticmethod
    def _degree(flow: Flow) -> int:
        return len(flow.uses) + len(flow.observers) + len(flow.predicate_targets)

    def push(self, flow: Flow) -> None:
        self._pushes += 1
        heapq.heappush(self._heap, (-self._degree(flow), self._pushes, flow))

    def pop(self) -> Flow:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


#: The worklist policies by name, the bit-identical default first.
_SCHEDULING_POLICIES = {
    "fifo": FifoScheduling,
    "degree": DegreeScheduling,
}


def make_scheduling_policy(
        name: str) -> Union[FifoScheduling, DegreeScheduling]:
    """A fresh worklist for one solve, looked up by (case-insensitive) name.

    Every policy supports ``push`` (called at most once per flow until that
    flow is popped — the solver's ``in_worklist`` bit guarantees it),
    ``pop`` (some previously pushed flow) and ``__len__`` (pending flows).
    """
    try:
        factory = _SCHEDULING_POLICIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; available: "
            f"{', '.join(available_scheduling_policies())}") from None
    return factory()


def available_scheduling_policies() -> Tuple[str, ...]:
    """Scheduling-policy names, the bit-identical default first."""
    return tuple(_SCHEDULING_POLICIES)
