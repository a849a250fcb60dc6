"""Scheduling policies: who owns the solver's worklist, and in what order.

The fixed-point iteration of :class:`~repro.core.solver.SkipFlowSolver` is
correct under *any* fair schedule: value states only move up the lattice and
the transfer functions are monotone, so the Kleene iteration converges to
the same least fixed point no matter which pending flow is processed next
(the classic chaotic-iteration result).  What the schedule *does* change is
the amount of work spent getting there — how often a flow is re-processed
before its inputs have settled — which is exactly what the solver's
machine-independent ``steps``/``joins`` counters measure.

A :class:`SchedulingPolicy` owns the container behind the worklist.  The
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

New policies plug in with :func:`register_scheduling_policy`; the CLI, the
engine, and :class:`~repro.core.kernel.policy.SolverPolicy` validation all
resolve names through this registry.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Protocol, Tuple, runtime_checkable

from repro.core.flows import Flow


@runtime_checkable
class SchedulingPolicy(Protocol):
    """What the solver's worklist must support.

    ``push`` is called at most once per flow until that flow is popped (the
    solver's ``in_worklist`` bit guarantees it), ``pop`` must return some
    previously pushed flow, and ``__len__`` reports how many flows are
    pending.  A policy instance belongs to exactly one solve.
    """

    name: str

    def push(self, flow: Flow) -> None: ...

    def pop(self) -> Flow: ...

    def __len__(self) -> int: ...


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


# ---------------------------------------------------------------------- #
# The registry
# ---------------------------------------------------------------------- #
_SCHEDULING_POLICIES: Dict[str, Callable[[], SchedulingPolicy]] = {}


def register_scheduling_policy(name: str,
                               factory: Callable[[], SchedulingPolicy],
                               *, replace: bool = False) -> None:
    """Register a worklist policy under ``name`` (one fresh instance per solve)."""
    key = name.strip().lower()
    if not replace and key in _SCHEDULING_POLICIES:
        raise ValueError(f"scheduling policy {key!r} is already registered; "
                         f"pass replace=True to override it")
    _SCHEDULING_POLICIES[key] = factory


def make_scheduling_policy(name: str) -> SchedulingPolicy:
    """A fresh worklist for one solve, looked up by (case-insensitive) name."""
    try:
        factory = _SCHEDULING_POLICIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; available: "
            f"{', '.join(available_scheduling_policies())}") from None
    return factory()


def available_scheduling_policies() -> Tuple[str, ...]:
    """Registered scheduling-policy names, the bit-identical default first."""
    names = sorted(_SCHEDULING_POLICIES)
    if "fifo" in names:
        names.remove("fifo")
        names.insert(0, "fifo")
    return tuple(names)


register_scheduling_policy("fifo", FifoScheduling)
register_scheduling_policy("degree", DegreeScheduling)
