"""The fixed-point solver: value propagation through PVPGs (Appendix C).

The solver maintains a worklist of flows whose value state changed and a
queue of invoke flows whose call targets may need (re-)linking.  All state is
monotone — value states only grow in the lattice ``L``, flows only ever switch
from disabled to enabled, and edges are only added — so the iteration reaches
a fixed point.

The inference rules of Figure 15 map onto the implementation as follows:

=============  ==============================================================
Rule           Implementation
=============  ==============================================================
Source         :meth:`SkipFlowSolver._enable` joins the constant produced by a
               :class:`~repro.core.flows.SourceFlow` into its state.
Propagate      the drain loop (:meth:`SkipFlowSolver._run`) joins ``VSout`` of
               each processed flow into ``VSin`` of its use-edge targets;
               :meth:`SkipFlowSolver._inject` does the same along an edge
               added mid-solve.
Predicate      the drain loop enables the predicate targets of an enabled,
               non-empty flow (:meth:`SkipFlowSolver._run`).
Load / Store   :meth:`SkipFlowSolver._link_fields` looks up the field flow for
               every receiver type and adds the corresponding use edges.
Invoke         :meth:`SkipFlowSolver._link_invoke` resolves call targets from
               the receiver state, marks them reachable, and links arguments,
               parameters, and returns.
TypeCheck      :meth:`~repro.core.flows.FilterTypeFlow.transfer`
Cond           :meth:`~repro.core.flows.FilterCompareFlow.transfer` via
               :func:`~repro.core.compare.compare_states`
PassThrough    :meth:`~repro.core.flows.Flow.transfer`
=============  ==============================================================
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Set

from repro.core.flows import (
    FilterCompareFlow,
    Flow,
    InvokeFlow,
    LoadFieldFlow,
    ParameterFlow,
    SourceFlow,
    StoreFieldFlow,
)
from repro.core.kernel.saturation import (
    AllocatedTypeSaturation,
    make_saturation_policy,
)
from repro.core.pvpg import MethodPVPG
from repro.core.pvpg_builder import ObjectSink, PVPGBuilder
from repro.core.state import SolverState, SolverStateError
from repro.ir.instructions import InvokeKind
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.types import (
    INT_TYPE_NAME,
    NULL_TYPE_NAME,
    MethodSignature,
)
from repro.lattice.value_state import ValueState


class SkipFlowSolver:
    """Interprocedural fixed-point solver over predicated value propagation graphs.

    The class is the propagation/linking *core* of the solver kernel
    (:mod:`repro.core.kernel`): it owns delivery, predicate enabling, and
    invoke/field linking, and drains its worklist oldest-first (a plain
    ``deque``, the seed's order, which every step count is pinned to),
    while a *saturation policy* — resolved by name from
    ``config.saturation_policy`` — decides when a megamorphic flow
    collapses and which top it collapses to (``off`` — the exact default,
    represented as no policy object at all so the hot path pays nothing;
    ``allocated-type``, which a bare threshold engages;
    ``allocated-type-reachable``).
    A saturated flow's joins are skipped because its state already
    dominates anything that could arrive, which keeps the result a sound
    over-approximation.

    Two implementation notes on the hot path:

    * Value states are hash-consed (:mod:`repro.lattice.value_state`) and
      :meth:`ValueState.join` returns the identical left operand when the join
      adds nothing, so change detection below uses ``is`` instead of ``==``.
    * Worklist membership is an intrusive ``in_worklist`` / ``in_link_queue``
      bit on each :class:`Flow` rather than a side set of flow ids; the
      worklist therefore never holds duplicates.

    The *mutable* half of the solve — the PVPG, reachability, counters, and
    the injection record — lives in a :class:`~repro.core.state.SolverState`
    that the solver borrows rather than owns.  A fresh solver gets the empty
    state (the seed-identical cold path); constructing a solver around the
    state of a previous solve *resumes* the Kleene iteration, which is sound
    whenever the program only grew monotonically in between (see
    :mod:`repro.core.state` and :mod:`repro.ir.delta`).  A state belongs to
    at most one live solver at a time; use :meth:`SolverState.fork` to
    branch.
    """

    def __init__(self, program: Program, config,
                 state: Optional[SolverState] = None) -> None:
        self.program = program
        self.hierarchy = program.hierarchy
        self.config = config

        if state is None:
            state = SolverState.empty(config)
        elif state.config is not None and state.config != config:
            raise SolverStateError(
                f"cannot resume: the state was solved under configuration "
                f"{getattr(state.config, 'name', state.config)!r}, not "
                f"{getattr(config, 'name', config)!r}")
        if state.config is None:
            state.config = config
        #: The borrowed mutable fixpoint state (see the class docstring).
        self.state = state
        self.pvpg = state.pvpg
        self.builder = PVPGBuilder(ObjectSink(self.pvpg, config))
        self._worklist: Deque[Flow] = deque()
        #: ``None`` when the cutoff is off — the hot path skips the feature.
        #: Built per solve (not here): program-aware policies need the roots.
        self._saturation: Optional[AllocatedTypeSaturation] = None
        #: Roots of the current solve (old seeds + new roots), for policies
        #: whose origin computation needs them; set by :meth:`solve`.
        self._solve_roots: tuple = ()
        self._pending_links: Deque[InvokeFlow] = deque()

    # ------------------------------------------------------------------ #
    # State views (the mutable fixpoint state lives on ``self.state``)
    # ------------------------------------------------------------------ #
    @property
    def reachable(self) -> Set[str]:
        """Qualified names of methods with bodies marked reachable."""
        return self.state.reachable

    @property
    def stub_methods(self) -> Set[str]:
        """Qualified names of called methods without a body (conservative)."""
        return self.state.stub_methods

    @property
    def steps(self) -> int:
        """Worklist events processed (a machine-independent cost proxy)."""
        return self.state.steps

    @property
    def joins(self) -> int:
        """Joins attempted against a flow's input state (delivery + injection)."""
        return self.state.joins

    @property
    def transfers(self) -> int:
        """Transfer-function evaluations (recomputations of ``VSout``)."""
        return self.state.transfers

    @property
    def saturated_flows(self) -> int:
        """Flows collapsed by the saturation cutoff (0 when the cutoff is off)."""
        return self.state.saturated_flows

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, roots: Optional[Iterable[str]] = None) -> None:
        """Run the analysis to a fixed point starting from the root methods.

        On a fresh state this is the seed-identical cold solve.  On a state
        that has already been solved, the iteration *resumes*: the restored
        worklist residue is rescheduled, saturated flows are re-collapsed
        against the current program's (possibly wider) sentinels, previous
        conservative injections are re-played, and only then are the roots
        seeded — so new roots, new classes, and new methods propagate into
        the existing fixpoint instead of re-deriving it.
        """
        state = self.state
        resuming = not state.is_fresh
        pred_on = self.pvpg.pred_on
        pred_on.enabled = True
        pred_on.state = pred_on.artificial_on_enable

        root_names = list(roots) if roots is not None else list(self.program.entry_points)
        if not root_names:
            raise ValueError("no root methods: provide roots or program entry points")
        self._saturation = make_saturation_policy(
            self.config.saturation_policy, self.config.saturation_threshold,
            self.program, tuple(root_names))
        self._solve_roots = tuple(dict.fromkeys(
            list(state.seeded_roots) + root_names))
        # Reachability-refined policies compute their origins from the
        # state's reachable set; seed them before any (re-)collapse so
        # resume-time sentinels are already current.
        self._refresh_saturation()
        previously_seeded = set(state.seeded_roots)
        if resuming:
            self._reattach(state.seeded_roots)
        for root in root_names:
            graph = self._make_reachable(root)
            if graph is None:
                continue
            if resuming and root in previously_seeded:
                continue  # _reattach already re-played this root's seed.
            self._seed_root_parameters(graph)
            if root not in previously_seeded:
                state.seeded_roots.append(root)
                previously_seeded.add(root)
        state.solve_count += 1
        self._run()
        # Optimistic refinement: policies whose sentinel depends on the
        # reachable set (``allocated-type-reachable``) may have collapsed
        # flows against origins that the inner fixpoint then outgrew.
        # Re-collapse to the widened sentinels and iterate; the loop
        # terminates because origins only grow and are bounded by the
        # closed world's type count.
        while self._refresh_saturation():
            self._recollapse_saturated()
            self._run()

    # ------------------------------------------------------------------ #
    # Resumption
    # ------------------------------------------------------------------ #
    def _reattach(self, seeded_roots: Iterable[str]) -> None:
        """Prepare a previously solved state for a warm continuation.

        Three things can be stale after a monotone program change:

        * the worklist residue — flows whose intrusive membership bits were
          set when the state was forked mid-solve (empty at a fixpoint)
          must re-enter the fresh worklist;
        * saturated flows — their sentinel was computed against the *old*
          program, and every sentinel only widens as the world grows
          (allocated tops gain types).  Joins into a saturated flow are
          skipped, so the flow must first be re-collapsed to the current
          sentinel or a cold solve of the grown program would see more
          than the resumed one;
        * conservative injections — root parameter seeds and stub-callee
          effects inject ``instantiable_subtypes`` of declared types, which
          also grow with the hierarchy.  Re-playing them is a no-op join
          whenever nothing changed.
        """
        for flow in self.pvpg.all_flows():
            if flow.in_worklist:
                self._worklist.append(flow)
            if isinstance(flow, InvokeFlow) and flow.in_link_queue:
                self._pending_links.append(flow)
        self._recollapse_saturated()
        for root in seeded_roots:
            graph = self.pvpg.method_graph(root)
            if graph is not None:
                self._seed_root_parameters(graph)
        for invoke_flow, signature in list(self.state.stub_links):
            self._apply_stub_effects(invoke_flow, signature)

    def _refresh_saturation(self) -> bool:
        """Let a reachability-aware cutoff recompute its origin set.

        Only ``allocated-type-reachable`` can answer ``True``; the
        whole-text ``allocated-type`` origins and the policy-less exact
        path return ``False`` immediately, so the refinement loop is a
        single no-op check for them.
        """
        saturation = self._saturation
        if saturation is None:
            return False
        return saturation.refresh_origins(
            frozenset(self.state.reachable),
            tuple(signature for _, signature in self.state.stub_links),
            self._solve_roots)

    def _recollapse_saturated(self) -> None:
        """Re-collapse saturated flows against the current sentinels.

        Joins into a saturated flow are skipped, so whenever a sentinel may
        have widened — the program grew before a resume, or a refinement
        pass grew a reachability-refined origin set — every saturated flow
        must jump to the new top (and reschedule) or the solve would
        under-approximate what a cold solve of the same program sees.
        """
        saturation = self._saturation
        if saturation is None:
            return
        for flow in self.pvpg.all_flows():
            if not flow.saturated:
                continue
            refreshed = flow.state.join(saturation.sentinel)
            if refreshed is not flow.state:
                flow.input_state = refreshed
                flow.state = refreshed
                if flow.enabled:
                    self._schedule(flow)

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #
    def _make_reachable(self, qualified_name: str) -> Optional[MethodPVPG]:
        existing = self.pvpg.method_graph(qualified_name)
        if existing is not None:
            return existing
        method = self.program.methods.get(qualified_name)
        if method is None:
            self.stub_methods.add(qualified_name)
            return None
        graph = self.builder.build_method(method)
        self.pvpg.add_method_graph(graph)
        self.reachable.add(qualified_name)
        if self.config.use_predicates:
            for flow in graph.flows:
                if any(p.enabled and not p.state.is_empty for p in flow.predicates):
                    self._enable(flow)
        else:
            for flow in graph.flows:
                self._enable(flow)
        return graph

    def _seed_root_parameters(self, graph: MethodPVPG) -> None:
        """Seed the parameters of a root method with conservative value states.

        Reference parameters may hold any instantiable subtype of their
        declared type (or ``null``); primitive parameters hold ``Any``.  This
        mirrors the treatment of reflection/JNI roots in Section 5.
        """
        signature = graph.method.signature
        for flow in graph.parameter_flows:
            declared = self._declared_parameter_type(signature, flow)
            self._inject(flow, self._conservative_state(declared))

    def _declared_parameter_type(self, signature: MethodSignature,
                                 flow: ParameterFlow) -> Optional[str]:
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

    def _conservative_state(self, declared_type: Optional[str]) -> ValueState:
        if declared_type is None or declared_type in (INT_TYPE_NAME, "void"):
            return ValueState.any_primitive()
        if declared_type in self.hierarchy:
            types = set(self.hierarchy.instantiable_subtypes(declared_type))
            types.add(NULL_TYPE_NAME)
            return ValueState.of_types(types)
        return ValueState.any_primitive()

    # ------------------------------------------------------------------ #
    # Worklist machinery
    # ------------------------------------------------------------------ #
    def _schedule(self, flow: Flow) -> None:
        if not flow.in_worklist:
            flow.in_worklist = True
            self._worklist.append(flow)

    def _schedule_link(self, flow: InvokeFlow) -> None:
        if not flow.in_link_queue:
            flow.in_link_queue = True
            self._pending_links.append(flow)

    def _run(self) -> None:
        """Drain the link queue, then the worklist, to a fixed point.

        Processing a flow — skip it when disabled, deliver ``VSout`` along
        every use edge (the Propagate rule), notify its observers, and
        enable its predicate targets once its state is non-empty (the
        Predicate rule) — is inlined over local bindings; ``steps`` and the
        delivery ``joins`` are counted in locals and added to the state on
        the way out, also when the drain raises.  No edge out of the
        drained flow is added while it drains (linking runs only off the
        link queue or on *other* flows), so its edge sets are iterated in
        place, without a copy.  ``ArenaKernelSolver._run`` runs the same
        events in the same order, with the pass-through transfer and the
        observer dispatch inlined as well.
        """
        state = self.state
        recompute = self._recompute
        notify = self._notify
        enable = self._enable
        link_invoke = self._link_invoke
        worklist = self._worklist
        pending = self._pending_links
        next_flow = worklist.popleft
        next_link = pending.popleft
        steps = joins = 0
        try:
            while worklist or pending:
                if pending:
                    invoke_flow = next_link()
                    invoke_flow.in_link_queue = False
                    if invoke_flow.enabled:
                        link_invoke(invoke_flow)
                    steps += 1
                    continue
                flow = next_flow()
                flow.in_worklist = False
                steps += 1
                if not flow.enabled:
                    continue
                for target in flow.uses:
                    if target.saturated:
                        continue
                    joins += 1
                    old_input = target.input_state
                    new_input = old_input.join(flow.state)
                    if new_input is not old_input:
                        target.input_state = new_input
                        recompute(target)
                for observer in flow.observers:
                    notify(observer)
                if not flow.state.is_empty:
                    for target in flow.predicate_targets:
                        enable(target)
        finally:
            state.steps += steps
            state.joins += joins

    def _inject(self, flow: Flow, state: ValueState) -> None:
        """Join a state into a flow's input (roots, stubs, solve-time edges)."""
        if flow.saturated:
            return
        self.state.joins += 1
        new_input = flow.input_state.join(state)
        if new_input is not flow.input_state:
            flow.input_state = new_input
            self._recompute(flow)

    def _recompute(self, flow: Flow) -> None:
        self.state.transfers += 1
        output = flow.transfer(self.hierarchy)
        new_state = flow.state.join(output)
        if new_state is not flow.state:
            saturation = self._saturation
            if (saturation is not None
                    and len(new_state.reference_types) > saturation.threshold):
                # Joining over the triggering state keeps the collapse a
                # move *up* the lattice.
                self._saturate(flow, new_state.join(saturation.sentinel))
                return
            flow.state = new_state
            if flow.enabled:
                self._schedule(flow)

    # ------------------------------------------------------------------ #
    # Saturation cutoff (off by default; see repro.core.kernel.saturation)
    # ------------------------------------------------------------------ #
    def _saturate(self, flow: Flow, sentinel: ValueState) -> None:
        """Collapse a megamorphic flow to its policy's sentinel.

        The sentinel dominates everything that can still arrive at the flow
        (the policy's contract), so skipping all further joins into it
        (the drain loop / ``_inject``) loses nothing: the result stays a sound
        over-approximation, it is just coarser than the paper's exact
        semantics.
        """
        self.state.saturated_flows += 1
        flow.saturated = True
        flow.input_state = sentinel
        flow.state = sentinel
        if flow.enabled:
            self._schedule(flow)

    def _notify(self, observer: Flow) -> None:
        if isinstance(observer, InvokeFlow):
            if observer.enabled:
                self._schedule_link(observer)
        elif isinstance(observer, (LoadFieldFlow, StoreFieldFlow)):
            if observer.enabled:
                self._link_fields(observer)
        elif isinstance(observer, FilterCompareFlow):
            self._recompute(observer)

    def _enable(self, flow: Flow) -> None:
        if flow.enabled:
            return
        flow.enabled = True
        if isinstance(flow, SourceFlow):
            produced = flow.source_state(self.config.track_primitives)
            flow.state = flow.state.join(produced)
        if flow.artificial_on_enable is not None:
            flow.state = flow.state.join(flow.artificial_on_enable)
        if isinstance(flow, InvokeFlow):
            self._schedule_link(flow)
        if isinstance(flow, (LoadFieldFlow, StoreFieldFlow)):
            self._link_fields(flow)
        if not flow.state.is_empty:
            self._schedule(flow)

    def _add_use_edge(self, source: Flow, target: Flow) -> None:
        if source.has_use(target):
            return
        source.add_use(target)
        if source.enabled and not source.state.is_empty:
            self._inject(target, source.state)

    # ------------------------------------------------------------------ #
    # Field linking (Load / Store rules)
    # ------------------------------------------------------------------ #
    def _link_fields(self, flow) -> None:
        receiver_state = flow.receiver.state
        for type_name in receiver_state.reference_types:
            declaration = self.hierarchy.lookup_field(type_name, flow.field_name)
            if declaration is None:
                continue
            field_flow = self.pvpg.field_flow(declaration)
            if isinstance(flow, LoadFieldFlow):
                self._add_use_edge(field_flow, flow)
            else:
                self._add_use_edge(flow, field_flow)

    # ------------------------------------------------------------------ #
    # Invoke linking (Invoke rule)
    # ------------------------------------------------------------------ #
    def _link_invoke(self, invoke_flow: InvokeFlow) -> None:
        invoke = invoke_flow.invoke
        if invoke.kind is InvokeKind.STATIC:
            signature = self._resolve_static(invoke.target_class, invoke.method_name)
            if signature is not None:
                self._link_callee(invoke_flow, signature)
            elif invoke.target_class is not None:
                self._record_unknown_callee(invoke_flow,
                                            f"{invoke.target_class}.{invoke.method_name}")
            return
        receiver_state = invoke_flow.receiver.state
        for type_name in sorted(receiver_state.reference_types):
            signature = self.hierarchy.resolve(type_name, invoke.method_name)
            if signature is not None:
                self._link_callee(invoke_flow, signature)

    def _resolve_static(self, target_class: Optional[str], method_name: str
                        ) -> Optional[MethodSignature]:
        if target_class is None or target_class not in self.hierarchy:
            return None
        return self.hierarchy.resolve(target_class, method_name)

    def _record_unknown_callee(self, invoke_flow: InvokeFlow, qualified_name: str) -> None:
        """A static call to an undeclared method: treat it as an opaque stub."""
        if qualified_name in invoke_flow.linked_callees:
            return
        invoke_flow.linked_callees.add(qualified_name)
        self.stub_methods.add(qualified_name)
        self._inject(invoke_flow, ValueState.any_primitive())

    def _link_callee(self, invoke_flow: InvokeFlow, signature: MethodSignature) -> None:
        qualified = signature.qualified_name
        if qualified in invoke_flow.linked_callees:
            return
        invoke_flow.linked_callees.add(qualified)
        graph = self._make_reachable(qualified)
        if graph is None:
            # Recorded so a resumed solve can re-play the conservative
            # effect against a grown hierarchy (see _reattach).  Static
            # calls to undeclared methods (_record_unknown_callee) inject
            # only primitive Any, which never widens, so they need no record.
            self.state.stub_links.append((invoke_flow, signature))
            self._apply_stub_effects(invoke_flow, signature)
            return
        for argument, parameter in zip(invoke_flow.argument_flows, graph.parameter_flows):
            self._add_use_edge(argument, parameter)
        for return_flow in graph.return_flows:
            self._add_use_edge(return_flow, invoke_flow)

    def _apply_stub_effects(self, invoke_flow: InvokeFlow, signature: MethodSignature) -> None:
        """Conservative handling of callees without a body (native/opaque methods)."""
        if signature.returns_reference:
            result = self._conservative_state(signature.return_type)
        else:
            result = ValueState.any_primitive()
        self._inject(invoke_flow, result)
