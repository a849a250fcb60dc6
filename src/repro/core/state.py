"""SolverState: the complete mutable state of one object-kernel fixpoint solve.

Historically :class:`~repro.core.solver.SkipFlowSolver` *owned* its mutable
fixpoint state — the PVPG with every flow's value state and edge sets, the
reachable and stub sets, the effort counters, and the worklist membership
bits — so the only way to analyze an edited program was to throw the solver
away and start cold.  This module inverts that ownership: the solver now
*borrows* a :class:`SolverState`, and a state outlives the solve that
produced it.  Any later solve — same program, or a monotonically grown one —
can be constructed around the state and simply continues the Kleene
iteration from where it stopped.

What a state contains
---------------------
* ``pvpg`` — the program PVPG: every built method graph, the field flows,
  ``pred_on``, and through them every flow's ``state`` / ``input_state`` /
  ``enabled`` / ``saturated`` bits and ordered edge sets.  This *is* the
  lattice element the fixpoint iteration climbs.
* ``reachable`` / ``stub_methods`` — the reachability frontier.
* ``steps`` / ``joins`` / ``transfers`` / ``saturated_flows`` — cumulative
  effort counters (they keep counting across resumed solves; callers that
  want per-solve costs diff :meth:`counters` around a solve).
* ``seeded_roots`` / ``stub_links`` — the conservative injections the solve
  performed (root parameter seeds and stub-callee effects).  A resumed
  solve re-plays them against the *current* hierarchy, because a monotone
  program change can widen the conservative state they injected.
* worklist residue — not stored separately: the intrusive ``in_worklist`` /
  ``in_link_queue`` bits on the flows are the record.  At a fixpoint both
  queues are empty; a state forked mid-solve resumes by rescheduling every
  marked flow (any fair order reaches the same fixpoint, so the original
  queue order need not be preserved).
* ``config`` — the :class:`~repro.core.analysis.AnalysisConfig` the state
  was solved under.  Resuming under a different configuration is rejected:
  half-solved predicates of one configuration are meaningless to another.

An object state lives in memory only: the session tracks whether the
program it is resumed over grew monotonically.  Every solver state that is
saved, parked or audited for its round trip is the arena kernel's
:class:`~repro.core.kernel.arena_kernel.ArenaSolverState`, whose tables
persist and validate themselves against the program they index.

The cold path is "resume from the empty state": a fresh solver simply
creates ``SolverState.empty()`` and runs — the exact seed behavior, down to
step counts (the CI regression gate covers this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.flows import (
    NO_EDGES,
    FieldFlow,
    FilterCompareFlow,
    FilterTypeFlow,
    Flow,
    InvokeFlow,
    LoadFieldFlow,
    ParameterFlow,
    ReturnFlow,
    SourceFlow,
    StoreFieldFlow,
)
from repro.core.pvpg import BranchRecord, MethodPVPG, ProgramPVPG
from repro.ir.types import MethodSignature


class SolverStateError(ValueError):
    """A solver state that cannot be resumed as requested.

    Raised for configuration mismatches, snapshot-format mismatches, and
    non-monotone program changes.  Callers that can fall back (the session
    API, the CLI) catch this and run cold, loudly.
    """


class SnapshotMismatchError(SolverStateError):
    """A well-formed snapshot that does not match the program.

    Raised by :meth:`~repro.core.kernel.arena_kernel.ArenaSolverState.
    from_bytes` when the program it is restored over does not have the
    arena and fingerprint the tables were written against.  Like a refused
    resume, it means "solve cold", not "the file is bad": the CLI falls
    back with a warning.
    """


class SolverState:
    """The mutable half of a fixpoint solve, detached from the solver."""

    def __init__(self, config: Optional[object] = None) -> None:
        self.pvpg = ProgramPVPG()
        self.reachable: set = set()
        self.stub_methods: set = set()
        self.steps = 0
        self.joins = 0
        self.transfers = 0
        self.saturated_flows = 0
        #: The AnalysisConfig of the first solve; later solves must match.
        self.config = config
        #: Roots whose parameter flows were conservatively seeded, in order.
        self.seeded_roots: List[str] = []
        #: (invoke flow, callee signature) pairs whose stub effects were
        #: injected; re-played on resume because the conservative return
        #: state can widen when the hierarchy grows.
        self.stub_links: List[Tuple[InvokeFlow, MethodSignature]] = []
        #: Completed solves over this state (0 = fresh, cold path).
        self.solve_count = 0

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, config: Optional[object] = None) -> "SolverState":
        """The cold-start state (what every pre-refactor solve began from)."""
        return cls(config)

    @property
    def is_fresh(self) -> bool:
        return self.solve_count == 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """The cumulative effort counters (diff around a solve for deltas)."""
        return {
            "steps": self.steps,
            "joins": self.joins,
            "transfers": self.transfers,
            "saturated_flows": self.saturated_flows,
        }

    def pending_flows(self) -> List[Flow]:
        """Flows whose worklist bit is set (non-empty only mid-solve)."""
        return [flow for flow in self.pvpg.all_flows() if flow.in_worklist]

    def pending_links(self) -> List[InvokeFlow]:
        """Invoke flows whose link-queue bit is set (non-empty only mid-solve)."""
        return [flow for flow in self.pvpg.all_flows()
                if isinstance(flow, InvokeFlow) and flow.in_link_queue]

    def max_flow_uid(self) -> int:
        flows = self.pvpg.all_flows()
        return max(flow.uid for flow in flows) if flows else -1

    # ------------------------------------------------------------------ #
    # Forks
    # ------------------------------------------------------------------ #
    def fork(self) -> "SolverState":
        """An independent deep copy (resume one branch, keep the other).

        Copies every flow, edge set, and solver-owned set through the flat
        fork codec; the immutable IR (methods, instructions, value states)
        stays shared between the branches by direct reference — the
        analysis treats it as read-only, so sharing is safe and cheap.  A
        session's generation tag travels with the fork (it is an in-process
        lineage fact), so a forked state is subject to the same warm
        barrier as its original.
        """
        branch = _decode_state(_encode_state(self))
        generation = getattr(self, "session_generation", None)
        if generation is not None:
            branch.session_generation = generation
        return branch


# --------------------------------------------------------------------------- #
# The flat fork codec
# --------------------------------------------------------------------------- #
# Flows are encoded as records whose inter-flow references are uids, which
# bounds the recursion depth (the live graph nests as deep as the longest
# propagation chain).  Each flow's ordered edge sets (``uses``,
# ``observers``, ``predicate_targets``) are encoded as uid lists in iteration
# order and re-added in that order, so edge order survives too.  One
# deliberate normalization: each flow's incoming ``predicates`` set is
# rebuilt from the predicate-target edges in flow-table order, which can
# permute it relative to the original interleaving; the solver only ever
# asks "is any predicate enabled", so the order is semantically inert.  The
# IR (methods, invoke and branch instructions) and value payloads are
# shared with the original by direct reference: the analysis treats them as
# read-only.


def _encode_flow(flow: Flow) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "cls": type(flow),
        "uid": flow.uid,
        "label": flow.label,
        "method": flow.method,
        "state": flow.state,
        "input_state": flow.input_state,
        "enabled": flow.enabled,
        "in_worklist": flow.in_worklist,
        "in_link_queue": flow.in_link_queue,
        "saturated": flow.saturated,
        "uses": [target.uid for target in flow.uses],
        "observers": [target.uid for target in flow.observers],
        "predicate_targets": [target.uid for target in flow.predicate_targets],
    }
    if isinstance(flow, SourceFlow):
        record["expr"] = flow.expr
    elif isinstance(flow, ParameterFlow):
        record["index"] = flow.index
        record["declared_type"] = flow.declared_type
    elif isinstance(flow, FilterTypeFlow):
        record["type_name"] = flow.type_name
        record["negated"] = flow.negated
        record["filtering_enabled"] = flow.filtering_enabled
    elif isinstance(flow, FilterCompareFlow):
        record["op"] = flow.op
        record["observed"] = flow.observed.uid if flow.observed is not None else None
        record["filtering_enabled"] = flow.filtering_enabled
    elif isinstance(flow, (LoadFieldFlow, StoreFieldFlow)):
        record["field_name"] = flow.field_name
        record["receiver"] = flow.receiver.uid
    elif isinstance(flow, InvokeFlow):
        record["receiver"] = flow.receiver.uid if flow.receiver is not None else None
        record["argument_flows"] = [arg.uid for arg in flow.argument_flows]
        record["linked_callees"] = sorted(flow.linked_callees)
    elif isinstance(flow, ReturnFlow):
        record["artificial_on_enable"] = flow.artificial_on_enable
    elif isinstance(flow, FieldFlow):
        record["declaration"] = flow.declaration
    return record


def _decode_flow_shell(record: Dict[str, Any]) -> Flow:
    """First pass: a flow with its scalar state but no wiring yet."""
    cls = record["cls"]
    flow = cls.__new__(cls)
    flow.uid = record["uid"]
    flow.label = record["label"]
    flow.method = record["method"]
    flow.state = record["state"]
    flow.input_state = record["input_state"]
    flow.enabled = record["enabled"]
    flow.in_worklist = record["in_worklist"]
    flow.in_link_queue = record["in_link_queue"]
    flow.saturated = record["saturated"]
    flow.uses = {}
    flow.observers = NO_EDGES
    flow.predicate_targets = NO_EDGES
    flow.predicates = NO_EDGES
    if isinstance(flow, SourceFlow):
        flow.expr = record["expr"]
    elif isinstance(flow, ParameterFlow):
        flow.index = record["index"]
        flow.declared_type = record["declared_type"]
    elif isinstance(flow, FilterTypeFlow):
        flow.type_name = record["type_name"]
        flow.negated = record["negated"]
        flow.filtering_enabled = record["filtering_enabled"]
    elif isinstance(flow, FilterCompareFlow):
        flow.op = record["op"]
        flow.filtering_enabled = record["filtering_enabled"]
    elif isinstance(flow, (LoadFieldFlow, StoreFieldFlow)):
        flow.field_name = record["field_name"]
    elif isinstance(flow, InvokeFlow):
        flow.invoke = None  # set from its method record
        flow.linked_callees = set(record["linked_callees"])
    elif isinstance(flow, ReturnFlow):
        flow.artificial_on_enable = record["artificial_on_enable"]
    elif isinstance(flow, FieldFlow):
        flow.declaration = record["declaration"]
    return flow


def _wire_flow(record: Dict[str, Any], flows: Dict[int, Flow]) -> None:
    """Second pass: ordered edge sets and intra-flow references, by uid."""
    flow = flows[record["uid"]]
    for uid in record["uses"]:
        flow.add_use(flows[uid])
    for uid in record["observers"]:
        flow.add_observer(flows[uid])
    for uid in record["predicate_targets"]:
        flow.add_predicate_target(flows[uid])
    if isinstance(flow, FilterCompareFlow):
        observed = record["observed"]
        flow.observed = flows[observed] if observed is not None else None
    elif isinstance(flow, (LoadFieldFlow, StoreFieldFlow)):
        flow.receiver = flows[record["receiver"]]
    elif isinstance(flow, InvokeFlow):
        receiver = record["receiver"]
        flow.receiver = flows[receiver] if receiver is not None else None
        flow.argument_flows = [flows[uid] for uid in record["argument_flows"]]


def _encode_state(state: SolverState) -> Dict[str, Any]:
    pvpg = state.pvpg
    return {
        "config": state.config,
        "steps": state.steps,
        "joins": state.joins,
        "transfers": state.transfers,
        "saturated_flows": state.saturated_flows,
        "reachable": sorted(state.reachable),
        "stub_methods": sorted(state.stub_methods),
        "seeded_roots": list(state.seeded_roots),
        "stub_links": [(flow.uid, signature)
                       for flow, signature in state.stub_links],
        "solve_count": state.solve_count,
        "flows": [_encode_flow(flow) for flow in pvpg.all_flows()],
        "pred_on": pvpg.pred_on.uid,
        "field_flows": [(name, flow.uid)
                        for name, flow in pvpg.field_flows.items()],
        "methods": [{
            "name": name,
            "method": graph.method,
            "flows": [flow.uid for flow in graph.flows],
            "parameter_flows": [flow.uid for flow in graph.parameter_flows],
            "return_flows": [flow.uid for flow in graph.return_flows],
            "invoke_flows": [(flow.uid, flow.invoke)
                             for flow in graph.invoke_flows],
            "branch_records": [{
                "instruction": rec.instruction,
                "kind": rec.kind,
                "then_predicate": rec.then_predicate.uid,
                "else_predicate": rec.else_predicate.uid,
                "block_predicate": rec.block_predicate.uid,
            } for rec in graph.branch_records],
        } for name, graph in pvpg.methods.items()],
    }


def _decode_state(payload: Dict[str, Any]) -> SolverState:
    flows: Dict[int, Flow] = {}
    for record in payload["flows"]:
        flows[record["uid"]] = _decode_flow_shell(record)
    for record in payload["flows"]:
        _wire_flow(record, flows)

    pvpg = ProgramPVPG.__new__(ProgramPVPG)
    pvpg.pred_on = flows[payload["pred_on"]]
    pvpg.field_flows = {name: flows[uid]
                        for name, uid in payload["field_flows"]}
    pvpg.methods = {}
    for record in payload["methods"]:
        invoke_flows = []
        for uid, invoke in record["invoke_flows"]:
            flow = flows[uid]
            flow.invoke = invoke
            invoke_flows.append(flow)
        pvpg.methods[record["name"]] = MethodPVPG(
            method=record["method"],
            parameter_flows=[flows[uid] for uid in record["parameter_flows"]],
            return_flows=[flows[uid] for uid in record["return_flows"]],
            invoke_flows=invoke_flows,
            branch_records=[BranchRecord(
                instruction=rec["instruction"],
                kind=rec["kind"],
                then_predicate=flows[rec["then_predicate"]],
                else_predicate=flows[rec["else_predicate"]],
                block_predicate=flows[rec["block_predicate"]],
            ) for rec in record["branch_records"]],
            flows=[flows[uid] for uid in record["flows"]],
        )

    state = SolverState(payload["config"])
    state.pvpg = pvpg
    state.steps = payload["steps"]
    state.joins = payload["joins"]
    state.transfers = payload["transfers"]
    state.saturated_flows = payload["saturated_flows"]
    state.reachable = set(payload["reachable"])
    state.stub_methods = set(payload["stub_methods"])
    state.seeded_roots = list(payload["seeded_roots"])
    state.stub_links = [(flows[uid], signature)
                        for uid, signature in payload["stub_links"]]
    state.solve_count = payload["solve_count"]
    return state
