"""Analysis results: reachable methods, value states, and call-graph queries.

An :class:`AnalysisResult` is a read-only view over the solved PVPG.  Its
counters are deterministic for a fixed (program, configuration) pair —
:class:`SolverStats` carries exact machine-independent numbers, not samples
— so downstream consumers (the benchmark engine's cache, the CI regression
gate) may compare them with ``==`` across processes, hosts, and runs.  Only
``analysis_time_seconds`` is wall-clock and excluded from such comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.flows import InvokeFlow
from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.core.pvpg import BranchRecord, MethodPVPG, ProgramPVPG
from repro.ir.program import Program
from repro.lattice.value_state import ValueState


@dataclass(frozen=True)
class SolverStats:
    """Machine-independent counters of one fixed-point solve.

    ``steps`` counts worklist events (the paper's cost proxy), ``joins`` the
    lattice joins attempted against flow input states, ``transfers`` the
    transfer-function evaluations, and ``saturated_flows`` the flows collapsed
    by the saturation cutoff (always 0 when the cutoff is disabled).
    """

    steps: int = 0
    joins: int = 0
    transfers: int = 0
    saturated_flows: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "steps": self.steps,
            "joins": self.joins,
            "transfers": self.transfers,
            "saturated_flows": self.saturated_flows,
        }


@dataclass
class MethodSummary:
    """Per-method statistics extracted from the solved PVPG."""

    qualified_name: str
    flow_count: int
    enabled_flow_count: int
    invoke_count: int
    linked_callee_count: int

    @property
    def disabled_flow_count(self) -> int:
        return self.flow_count - self.enabled_flow_count


class Deferred:
    """A field value that is produced on first access.

    Wraps a zero-argument thunk.  The :class:`AnalysisResult` fields backed
    by :class:`_LazyField` accept either the value itself or a ``Deferred``
    around it, resolving (and memoizing) the thunk transparently on first
    read — so a kernel can hand over an expensive view, like the arena
    kernel's inflated object PVPG, without anyone paying for it unless it is
    actually looked at.
    """

    __slots__ = ("thunk",)

    def __init__(self, thunk: Callable[[], object]) -> None:
        self.thunk = thunk


class _LazyField:
    """Data descriptor behind a dataclass field that accepts :class:`Deferred`.

    Attached to the class *after* ``@dataclass`` builds it, so the generated
    ``__init__`` keeps its signature while field assignment and access route
    through a shadow slot where a ``Deferred`` is resolved exactly once.
    """

    def __init__(self, name: str) -> None:
        self._slot = "_lazy_" + name

    def __get__(self, obj: object, owner: Optional[type] = None) -> object:
        if obj is None:
            return self
        value = getattr(obj, self._slot)
        if isinstance(value, Deferred):
            value = value.thunk()
            setattr(obj, self._slot, value)
        return value

    def __set__(self, obj: object, value: object) -> None:
        setattr(obj, self._slot, value)


@dataclass
class AnalysisResult:
    """The outcome of one analysis run.

    Exposes the fixed-point PVPG together with convenience accessors used by
    the image builder, the metrics collector, and the tests.  ``pvpg`` and
    ``solver_state`` may be constructed with :class:`Deferred` thunks: the
    arena kernel propagates on flat integer tables and only inflates the
    object graph when one of these fields is actually read, so consumers
    that stick to counters, reachable sets, and the image reports never
    trigger it.
    """

    program: Program
    config: object
    pvpg: ProgramPVPG
    reachable_methods: Set[str]
    stub_methods: Set[str]
    analysis_time_seconds: float
    steps: int
    stats: Optional[SolverStats] = None
    #: The live :class:`~repro.core.state.SolverState` behind this result.
    #: ``pvpg`` above *is* this state's graph; resuming a later solve from
    #: the state continues mutating it (the scalar fields of this result —
    #: counts, sets, stats — are copies taken at solve time and stay put).
    solver_state: Optional[object] = None
    #: The arena kernel solver that produced this result: it answers the
    #: image-report queries from its own tables (``image_counters`` /
    #: ``dead_code_rows``); ``None`` for the object kernel, whose only view
    #: *is* the PVPG.
    kernel_backend: Optional[ArenaKernelSolver] = None
    #: The kernel that ran the solve: ``arena`` for a cold solve of an
    #: :class:`~repro.ir.arena.ArenaProgram` — attached to a buffer, or the
    #: in-memory lowering every image build solves — and ``object``
    #: otherwise (a plain program analyzed directly, or a warm resume).
    kernel_ran: str = "object"

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #
    @property
    def reachable_method_count(self) -> int:
        return len(self.reachable_methods)

    def is_method_reachable(self, qualified_name: str) -> bool:
        return qualified_name in self.reachable_methods

    def method_graph(self, qualified_name: str) -> Optional[MethodPVPG]:
        return self.pvpg.method_graph(qualified_name)

    def reachable_graphs(self) -> Iterator[MethodPVPG]:
        for name in sorted(self.reachable_methods):
            graph = self.pvpg.method_graph(name)
            if graph is not None:
                yield graph

    # ------------------------------------------------------------------ #
    # Value states
    # ------------------------------------------------------------------ #
    def parameter_state(self, qualified_name: str, index: int) -> ValueState:
        graph = self._require_graph(qualified_name)
        return graph.parameter_flows[index].state

    def return_state(self, qualified_name: str) -> ValueState:
        graph = self._require_graph(qualified_name)
        state = ValueState.empty()
        for return_flow in graph.return_flows:
            if return_flow.enabled:
                state = state.join(return_flow.state)
        return state

    def field_state(self, qualified_field_name: str) -> ValueState:
        flow = self.pvpg.field_flows.get(qualified_field_name)
        return flow.state if flow is not None else ValueState.empty()

    # ------------------------------------------------------------------ #
    # Call graph
    # ------------------------------------------------------------------ #
    def call_targets(self, qualified_name: str) -> Dict[str, FrozenSet[str]]:
        """Map from call-site label to the set of linked callees in a method."""
        graph = self._require_graph(qualified_name)
        targets: Dict[str, FrozenSet[str]] = {}
        for index, invoke_flow in enumerate(graph.invoke_flows):
            key = f"{invoke_flow.label}#{index}"
            targets[key] = frozenset(invoke_flow.linked_callees)
        return targets

    def call_edges(self) -> List[Tuple[str, str]]:
        """All (caller, callee) pairs of the computed call graph."""
        edges: List[Tuple[str, str]] = []
        for graph in self.reachable_graphs():
            for invoke_flow in graph.invoke_flows:
                for callee in sorted(invoke_flow.linked_callees):
                    edges.append((graph.qualified_name, callee))
        return edges

    def invoke_flows(self) -> Iterator[InvokeFlow]:
        for graph in self.reachable_graphs():
            yield from graph.invoke_flows

    def branch_records(self) -> Iterator[Tuple[str, BranchRecord]]:
        for graph in self.reachable_graphs():
            for record in graph.branch_records:
                yield graph.qualified_name, record

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def method_summary(self, qualified_name: str) -> MethodSummary:
        graph = self._require_graph(qualified_name)
        return MethodSummary(
            qualified_name=qualified_name,
            flow_count=len(graph.flows),
            enabled_flow_count=sum(1 for flow in graph.flows if flow.enabled),
            invoke_count=len(graph.invoke_flows),
            linked_callee_count=sum(len(f.linked_callees) for f in graph.invoke_flows),
        )

    def summaries(self) -> List[MethodSummary]:
        return [self.method_summary(name) for name in sorted(self.reachable_methods)]

    def _require_graph(self, qualified_name: str) -> MethodPVPG:
        graph = self.pvpg.method_graph(qualified_name)
        if graph is None:
            raise KeyError(f"method {qualified_name!r} was not analyzed (not reachable)")
        return graph


# The lazy fields (see the class docstring).  Attached post-decoration so
# ``@dataclass`` generates a normal ``__init__``; at runtime its assignments
# hit these data descriptors instead of the instance dict.
AnalysisResult.pvpg = _LazyField("pvpg")  # type: ignore[assignment]
AnalysisResult.solver_state = _LazyField("solver_state")  # type: ignore[assignment]
