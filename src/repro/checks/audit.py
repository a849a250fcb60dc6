"""Post-solve audit passes: machine-checked invariants of analysis artifacts.

The solver's result is trusted by everything downstream — the image
builder, the service layer's warm resumes, the evaluation tables.  These
passes re-verify that trust *statically*, by replaying the solver's own
monotone operations over the final state — an object-kernel
:class:`~repro.core.state.SolverState`, or the arena kernel's
:class:`~repro.core.kernel.arena_kernel.ArenaSolverState`, whose
inflated copy the per-flow passes walk — and asserting that nothing
changes:

* **AUD001 — residue**: a finished solve leaves no worklist or link-queue
  bits set; pending work means the state is mid-solve, not a fixpoint.
* **AUD002 — stability**: one extra sweep is a no-op.  Every flow's state
  already dominates its transfer output; every enabled flow's state is
  already contained in each unsaturated use target's input; the recorded
  conservative injections (root parameter seeds, stub-callee effects)
  re-play as identity joins.  Joins are checked with the hash-consing
  identity contract — ``x.join(y) is x`` iff ``y`` adds nothing — so the
  sweep costs one pass, no lattice comparisons.
* **AUD003 — enablement**: every enabled non-empty flow has enabled all
  its predicate targets, and enabled flows dominate the states enabling
  grants them (source constants, artificial-on-enable values).
* **AUD004 — link closure**: the call graph is closed.  Every enabled
  invoke flow has linked every callee its receiver states resolve through
  the hierarchy (and its static target, known or stub); linked callees
  are reachable or recorded stubs; reachable methods and built graphs
  agree; enabled field accesses are edge-linked to each receiver type's
  field flow.
* **AUD005 — saturation**: the configured policy's sentinels are honored.
  With saturation off no flow is saturated; otherwise every saturated
  flow's state dominates the policy's current sentinel for it (dominance,
  because a collapse joins the sentinel over the triggering state).
* **AUD006 — snapshot**: the arena state's tables round-trip through
  their codec, the restored tables accept the program (arena and
  fingerprint check) and their inflated copy re-audits clean.  With
  :attr:`CheckContext.snapshot` bytes, those bytes are verified instead —
  the rehydration path, which is how a forged or stale snapshot file is
  caught.  An object state has no persisted form: asking AUD006 of one
  raises :class:`TypeError` rather than passing silently.
* **AUD007 — warm barrier**: a state stamped with a session generation
  older than the session's warm barrier must not be offered for resume; a
  non-monotone edit happened after it was produced.

The per-flow passes (AUD001–AUD005) share one fused sweep, memoized on
the context: auditing is on the hot path of every analyze/serve/fuzz
request, so the state is walked once, not once per check.  The soundness
argument is the contrapositive of the solver's: the solver stops only
when the worklist drains, and every rule application is one of the
monotone operations replayed here.  If all replays are identity, the
state is a fixpoint of exactly the rules the solver implements; any
corruption — a shrunk value state, a dropped edge, a forged snapshot —
breaks at least one replay.  See ``docs/checks.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.checks.diagnostics import Diagnostic, Location, Severity
from repro.checks.registry import Check, CheckContext, register_check
from repro.core.flows import (
    FilterCompareFlow,
    FilterTypeFlow,
    Flow,
    InvokeFlow,
    LoadFieldFlow,
    ParameterFlow,
    SourceFlow,
    StoreFieldFlow,
)
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.kernel.saturation import make_saturation_policy
from repro.core.state import SolverState, SolverStateError
from repro.ir.instructions import InvokeKind
from repro.ir.program import Program
from repro.ir.types import INT_TYPE_NAME, NULL_TYPE_NAME, MethodSignature
from repro.ir.values import ConstKind
from repro.lattice.value_state import ValueState

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.results import AnalysisResult


def _location(flow: Flow) -> Location:
    return Location(method=flow.method, flow=flow.uid,
                    flow_kind=type(flow).__name__)


def _diag(id: str, check: str, message: str,
          location: Location = Location()) -> Diagnostic:
    return Diagnostic(id=id, severity=Severity.ERROR, message=message,
                      check=check, location=location)


# --------------------------------------------------------------------------- #
# Mirrors of the solver's conservative-state computations
# --------------------------------------------------------------------------- #
def _conservative_state(program: Program,
                        declared_type: Optional[str]) -> ValueState:
    """Mirror of ``SkipFlowSolver._conservative_state`` (kept in lockstep)."""
    if declared_type is None or declared_type in (INT_TYPE_NAME, "void"):
        return ValueState.any_primitive()
    if declared_type in program.hierarchy:
        types = set(program.hierarchy.instantiable_subtypes(declared_type))
        types.add(NULL_TYPE_NAME)
        return ValueState.of_types(types)
    return ValueState.any_primitive()


def _declared_parameter_type(signature: MethodSignature,
                             flow: ParameterFlow) -> Optional[str]:
    """Mirror of ``SkipFlowSolver._declared_parameter_type``."""
    if flow.declared_type is not None:
        return flow.declared_type
    index = flow.index
    if not signature.is_static:
        if index == 0:
            return signature.declaring_class
        index -= 1
    if 0 <= index < len(signature.param_types):
        return signature.param_types[index]
    return None


def _stub_effect(program: Program, signature: MethodSignature) -> ValueState:
    """Mirror of ``SkipFlowSolver._apply_stub_effects``."""
    if signature.returns_reference:
        return _conservative_state(program, signature.return_type)
    return ValueState.any_primitive()


# --------------------------------------------------------------------------- #
# The fused sweep behind AUD001–AUD005
# --------------------------------------------------------------------------- #
_SWEEP_ATTR = "_audit_sweep_cache"

#: Check names whose findings the fused sweep produces.
_SWEEP_CHECKS = ("residue", "stability", "enablement", "link-closure",
                 "saturation")


def _sweep(context: CheckContext) -> Dict[str, List[Diagnostic]]:
    """One pass over every flow, computing AUD001–AUD005 findings together.

    Memoized on the context object: the registry runs five per-flow checks
    over the same state, and walking a large PVPG more than once would
    breach the check smoke's audit gate (audit time against a plain walk of
    the same flows, ``benchmarks/run_check_smoke.py``).
    """
    cached = getattr(context, _SWEEP_ATTR, None)
    if cached is not None:
        return cached
    findings: Dict[str, List[Diagnostic]] = {
        name: [] for name in _SWEEP_CHECKS}
    setattr(context, _SWEEP_ATTR, findings)
    state = context.state
    if state is None:
        return findings
    if isinstance(state, ArenaSolverState):
        state = state.inflate()
    program = context.program
    hierarchy = program.hierarchy
    config = state.config
    track_primitives = getattr(config, "track_primitives", True)

    # Saturation policy, rebuilt from the state's own configuration.
    policy = None
    if config is not None:
        policy = make_saturation_policy(
            config.saturation_policy, config.saturation_threshold,
            program, tuple(state.seeded_roots))
        if policy is None and state.saturated_flows != 0:
            findings["saturation"].append(_diag(
                "AUD005", "saturation",
                f"saturated-flow counter is {state.saturated_flows} although "
                f"the configured saturation policy is off"))
        elif policy is not None:
            policy.refresh_origins(
                frozenset(state.reachable),
                tuple(signature for _, signature in state.stub_links),
                tuple(state.seeded_roots))

    # Reachability bookkeeping agreement (graphs are built exactly for the
    # methods marked reachable).
    built = set(state.pvpg.methods)
    for name in sorted(state.reachable - built):
        findings["link-closure"].append(_diag(
            "AUD004", "link-closure",
            f"method {name} is marked reachable but has no built graph",
            Location(method=name)))
    for name in sorted(built - state.reachable):
        findings["link-closure"].append(_diag(
            "AUD004", "link-closure",
            f"method {name} has a built graph but is not marked reachable",
            Location(method=name)))

    known = state.reachable | state.stub_methods
    passthrough = Flow.transfer
    # Per-class facts, computed once per flow class instead of once per flow:
    # whether transfer is overridden, and which sweep branch the class takes.
    _OTHER, _INVOKE, _SOURCE, _LOAD, _STORE = range(5)
    class_info: Dict[type, Tuple[bool, int, bool]] = {}
    resolve = hierarchy.resolve
    resolve_cache: Dict[Tuple[str, str], Optional[MethodSignature]] = {}
    # Virtual-call targets are a pure function of (receiver type set, method
    # name), and receiver type sets are shared frozensets whose hashes Python
    # caches — so megamorphic call sites with identical receivers resolve once.
    expected_cache: Dict[Tuple[frozenset, str], Tuple[str, ...]] = {}
    field_cache: Dict[Tuple[str, str], object] = {}
    source_cache: Dict[Tuple[ConstKind, object], ValueState] = {}
    # Filter transfers are pure functions of their (interned, hashable)
    # operand states plus frozen per-flow fields, and guard patterns repeat
    # heavily, so replaying each distinct filter once is enough.  Exact-class
    # checks keep hypothetical subclasses on the uncached generic path.
    transfer_cache: Dict[tuple, ValueState] = {}
    residue = findings["residue"]
    stability = findings["stability"]
    enablement = findings["enablement"]
    link_closure = findings["link-closure"]
    saturation = findings["saturation"]

    for flow in state.pvpg.all_flows():
        cls = type(flow)
        info = class_info.get(cls)
        if info is None:
            if issubclass(cls, InvokeFlow):
                branch = _INVOKE
            elif issubclass(cls, SourceFlow):
                branch = _SOURCE
            elif issubclass(cls, LoadFieldFlow):
                branch = _LOAD
            elif issubclass(cls, StoreFieldFlow):
                branch = _STORE
            else:
                branch = _OTHER
            # ``artificial_on_enable`` is a class attribute (``None``) except
            # for the pred-on/phi-pred constants and the one class carrying
            # it as an instance slot — whose slot descriptor is truthy here,
            # keeping the per-instance read for exactly that class.
            info = (cls.transfer is not passthrough, branch,
                    getattr(cls, "artificial_on_enable", None) is not None)
            class_info[cls] = info
        overridden, branch, may_artificial = info
        is_invoke = branch == _INVOKE
        if flow.in_worklist:
            residue.append(_diag(
                "AUD001", "residue",
                "flow still carries its worklist bit: the state is "
                "mid-solve, not a fixpoint", _location(flow)))
        if is_invoke and flow.in_link_queue:
            residue.append(_diag(
                "AUD001", "residue",
                "invoke flow still queued for linking: the state is "
                "mid-solve, not a fixpoint", _location(flow)))

        flow_state = flow.state
        # The default transfer is the identity on the input state, so flows
        # whose state and input are the same interned object are trivially
        # stable — no call, no join.
        if overridden or flow_state is not flow.input_state:
            if cls is FilterTypeFlow:
                transfer_key = (1, flow.type_name, flow.negated,
                                flow.filtering_enabled, flow.input_state)
            elif cls is FilterCompareFlow:
                observed = flow.observed
                transfer_key = (2, flow.op, flow.filtering_enabled,
                                flow.input_state,
                                None if observed is None else observed.state)
            else:
                transfer_key = None
            if transfer_key is not None:
                output = transfer_cache.get(transfer_key)
                if output is None:
                    output = flow.transfer(hierarchy)
                    transfer_cache[transfer_key] = output
            else:
                output = flow.transfer(hierarchy)
            if flow_state.join(output) is not flow_state:
                stability.append(_diag(
                    "AUD002", "stability",
                    "transfer output is not contained in the flow's state: "
                    "one more recompute would change the result",
                    _location(flow)))

        if flow.saturated and policy is not None:
            sentinel = policy.sentinel
            if flow_state.join(sentinel) is not flow_state:
                saturation.append(_diag(
                    "AUD005", "saturation",
                    f"saturated flow does not dominate the "
                    f"{config.saturation_policy!r} sentinel: joins skipped "
                    f"into it may have been lost", _location(flow)))
        elif flow.saturated and config is not None:
            saturation.append(_diag(
                "AUD005", "saturation",
                "flow is saturated although the configured saturation "
                "policy is off", _location(flow)))

        if not flow.enabled:
            continue

        if not flow_state.is_empty:
            for target in flow.uses:
                if target.saturated or target.input_state is flow_state:
                    continue
                if target.input_state.join(flow_state) is not target.input_state:
                    stability.append(_diag(
                        "AUD002", "stability",
                        f"state of flow #{flow.uid} is not contained in the "
                        f"input of its use target #{target.uid}: one more "
                        f"delivery would change the result",
                        _location(target)))
            for target in flow.predicate_targets:
                if not target.enabled:
                    enablement.append(_diag(
                        "AUD003", "enablement",
                        f"flow #{flow.uid} is enabled and non-empty but its "
                        f"predicate target #{target.uid} is still disabled",
                        _location(target)))

        if branch == _SOURCE:
            # source_state is a pure function of (expr kind, payload,
            # track_primitives); the cache key mirrors exactly the fields
            # SourceFlow.source_state reads.
            expr = flow.expr
            expr_kind = expr.kind
            if expr_kind is ConstKind.INT:
                source_key = (expr_kind, expr.int_value)
            elif expr_kind is ConstKind.NEW:
                source_key = (expr_kind, expr.type_name)
            else:
                source_key = (expr_kind, None)
            produced = source_cache.get(source_key)
            if produced is None:
                produced = flow.source_state(track_primitives)
                source_cache[source_key] = produced
            if flow_state.join(produced) is not flow_state:
                enablement.append(_diag(
                    "AUD003", "enablement",
                    "enabled source flow does not dominate its produced "
                    "constant", _location(flow)))
        if may_artificial:
            artificial = flow.artificial_on_enable
            if (artificial is not None
                    and flow_state.join(artificial) is not flow_state):
                enablement.append(_diag(
                    "AUD003", "enablement",
                    "enabled flow does not dominate its artificial-on-enable "
                    "state", _location(flow)))

        if is_invoke:
            invoke = flow.invoke
            expected: List[str] = []
            if invoke.kind is InvokeKind.STATIC:
                if invoke.target_class is not None:
                    if invoke.target_class in hierarchy:
                        signature = resolve(invoke.target_class,
                                            invoke.method_name)
                    else:
                        signature = None
                    if signature is not None:
                        expected.append(signature.qualified_name)
                    else:
                        expected.append(
                            f"{invoke.target_class}.{invoke.method_name}")
            elif flow.receiver is not None:
                method_name = invoke.method_name
                receiver_types = flow.receiver.state.reference_types
                cached_expected = expected_cache.get(
                    (receiver_types, method_name))
                if cached_expected is not None:
                    expected.extend(cached_expected)
                else:
                    for type_name in receiver_types:
                        key = (type_name, method_name)
                        if key in resolve_cache:
                            signature = resolve_cache[key]
                        else:
                            signature = resolve(type_name, method_name)
                            resolve_cache[key] = signature
                        if signature is not None:
                            expected.append(signature.qualified_name)
                    expected_cache[(receiver_types, method_name)] = tuple(
                        expected)
            linked = flow.linked_callees
            for callee in expected:
                if callee not in linked:
                    link_closure.append(_diag(
                        "AUD004", "link-closure",
                        f"call edge to {callee} is missing: the receiver "
                        f"state resolves it but the invoke flow never "
                        f"linked it", _location(flow)))
            for callee in sorted(linked):
                if callee not in known:
                    link_closure.append(_diag(
                        "AUD004", "link-closure",
                        f"linked callee {callee} is neither reachable nor "
                        f"a recorded stub", _location(flow)))
        elif branch == _LOAD or branch == _STORE:
            is_load = branch == _LOAD
            field_flows = state.pvpg.field_flows
            field_name = flow.field_name
            for type_name in flow.receiver.state.reference_types:
                key = (type_name, field_name)
                if key in field_cache:
                    declaration = field_cache[key]
                else:
                    declaration = hierarchy.lookup_field(type_name,
                                                         field_name)
                    field_cache[key] = declaration
                if declaration is None:
                    continue
                field_flow = field_flows.get(declaration.qualified_name)
                edge_ok = (field_flow is not None
                           and (field_flow.has_use(flow) if is_load
                                else flow.has_use(field_flow)))
                if not edge_ok:
                    kind = "load" if is_load else "store"
                    link_closure.append(_diag(
                        "AUD004", "link-closure",
                        f"{kind} of {declaration.qualified_name} reached by "
                        f"receiver type {type_name} has no edge to the "
                        f"field flow", _location(flow)))

    # Conservative-injection replay (roots + stub callees) → stability.
    seed_cache: Dict[Optional[str], ValueState] = {}
    for root in state.seeded_roots:
        graph = state.pvpg.method_graph(root)
        if graph is None:
            continue
        signature = graph.method.signature
        for flow in graph.parameter_flows:
            if flow.saturated:
                continue
            declared = _declared_parameter_type(signature, flow)
            seed = seed_cache.get(declared)
            if seed is None:
                seed = _conservative_state(program, declared)
                seed_cache[declared] = seed
            if flow.input_state.join(seed) is not flow.input_state:
                stability.append(_diag(
                    "AUD002", "stability",
                    f"root {root} parameter seed is not contained in the "
                    f"parameter's input: re-seeding would change the result",
                    _location(flow)))
    for invoke_flow, signature in state.stub_links:
        if invoke_flow.saturated:
            continue
        effect = _stub_effect(program, signature)
        if invoke_flow.input_state.join(effect) is not invoke_flow.input_state:
            stability.append(_diag(
                "AUD002", "stability",
                f"conservative effect of stub callee "
                f"{signature.qualified_name} is not contained in the invoke "
                f"flow's input: re-playing it would change the result",
                _location(invoke_flow)))
    return findings


def _sweep_check(name: str):
    def run(context: CheckContext) -> List[Diagnostic]:
        return list(_sweep(context)[name])
    return run


# --------------------------------------------------------------------------- #
# AUD006 — snapshot integrity
# --------------------------------------------------------------------------- #
def _check_snapshot(context: CheckContext) -> List[Diagnostic]:
    state = context.state
    blob = context.snapshot
    if blob is None:
        if state is None:
            return []
        if not isinstance(state, ArenaSolverState):
            raise TypeError(
                "the snapshot audit (AUD006) round-trips the arena kernel's "
                "tables, and an object-kernel SolverState has no persisted "
                "form: audit the arena state of a solve over an attached "
                "program, or pass snapshot=False")
    program = context.program
    try:
        if blob is None:
            blob = state.to_bytes(program)
        restored = ArenaSolverState.from_bytes(blob, program)
    except SolverStateError as error:
        return [_diag(
            "AUD006", "snapshot",
            f"snapshot does not restore cleanly against this program: "
            f"{error}")]
    if context.snapshot is None:
        if restored.counters() != state.counters():
            return [_diag(
                "AUD006", "snapshot",
                f"snapshot round-trip changed the effort counters: "
                f"{state.counters()} became {restored.counters()}")]
        if (restored.reachable != state.reachable
                or restored.stub_methods != state.stub_methods):
            return [_diag(
                "AUD006", "snapshot",
                "snapshot round-trip changed the reachable or stub sets")]
    inner_context = CheckContext(program=program, state=restored)
    inner = [finding for name in _SWEEP_CHECKS
             for finding in _sweep(inner_context)[name]]
    return [_diag(
        "AUD006", "snapshot",
        f"restored snapshot does not re-audit clean: {finding.id} "
        f"{finding.message}", finding.location)
        for finding in inner]


# --------------------------------------------------------------------------- #
# AUD007 — warm-barrier monotonicity
# --------------------------------------------------------------------------- #
def _check_warm_barrier(context: CheckContext) -> List[Diagnostic]:
    state = context.state
    if state is None or context.warm_barrier <= 0:
        return []
    generation = getattr(state, "session_generation", None)
    if generation is not None and generation < context.warm_barrier:
        return [_diag(
            "AUD007", "warm-barrier",
            f"state was produced at session generation {generation}, before "
            f"the warm barrier at generation {context.warm_barrier}: a "
            f"non-monotone edit happened since, so resuming it would be "
            f"unsound")]
    return []


def _make(name: str, ids: Tuple[str, ...], description: str, fn) -> Check:
    return register_check(Check(name=name, kind="audit", ids=ids,
                                description=description, run=fn))


AUDIT_CHECKS: Tuple[Check, ...] = (
    _make("residue", ("AUD001",),
          "no worklist or link-queue bits survive a finished solve",
          _sweep_check("residue")),
    _make("stability", ("AUD002",),
          "one extra solver sweep (transfers, deliveries, injections) is a "
          "no-op", _sweep_check("stability")),
    _make("enablement", ("AUD003",),
          "predicate targets of non-empty flows are enabled; enabled flows "
          "dominate their enabling states", _sweep_check("enablement")),
    _make("link-closure", ("AUD004",),
          "call and field edges are closed under receiver states and the "
          "hierarchy", _sweep_check("link-closure")),
    _make("saturation", ("AUD005",),
          "saturated flows dominate the configured policy's sentinels",
          _sweep_check("saturation")),
    _make("snapshot", ("AUD006",),
          "the arena state's tables survive their codec and re-audit clean",
          _check_snapshot),
    _make("warm-barrier", ("AUD007",),
          "resumable states do not predate the session's warm barrier",
          _check_warm_barrier),
)


# --------------------------------------------------------------------------- #
# Convenience wrappers
# --------------------------------------------------------------------------- #
def audit_state(state: Union[SolverState, ArenaSolverState],
                program: Program, *, warm_barrier: int = 0,
                snapshot: bool = True) -> List[Diagnostic]:
    """Run the audit passes over one solver state of either kernel.

    ``program`` is the one the state was solved over (for an arena state,
    the attached program its tables index).  ``snapshot=False`` skips the
    codec round-trip (``AUD006``) — the other passes are one fused sweep
    over the state, which is what latency-sensitive callers (the fuzz
    oracle's per-combo hook, audit-on-analyze) want.  ``AUD006`` needs an
    arena state: an object state raises :class:`TypeError`.
    """
    from repro.checks.registry import run_checks

    names = [check.name for check in AUDIT_CHECKS
             if snapshot or check.name != "snapshot"]
    return run_checks(
        CheckContext(program=program, state=state, warm_barrier=warm_barrier),
        names=names)


def audit_result(result: "AnalysisResult", *,
                 warm_barrier: int = 0,
                 snapshot: bool = True) -> List[Diagnostic]:
    """Run the audit passes over an engine analysis result.

    The audited state is the result's resumable one: the arena tables when
    the arena kernel ran, else the object state (which needs
    ``snapshot=False``).  Results without a solver state (the CHA/RTA
    call-graph baselines have none) audit trivially clean: the audits
    verify *solver* artifacts, and there is no solver artifact to verify.
    """
    state = getattr(result, "resumable_state", None)
    if state is None:
        return []
    return audit_state(state, result.program, warm_barrier=warm_barrier,
                       snapshot=snapshot)


def audit_snapshot(blob: bytes, program: Program) -> List[Diagnostic]:
    """Verify serialized arena tables against the attached program they
    index (the rehydration path)."""
    from repro.checks.registry import run_checks

    return run_checks(CheckContext(program=program, snapshot=blob),
                      names=("snapshot",))
