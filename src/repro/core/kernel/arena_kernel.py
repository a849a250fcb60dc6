"""The arena propagation kernel: the fixed-point solve over integer flow ids.

:class:`ArenaKernelSolver` is the one propagation loop: it runs the
SkipFlow rules (Appendix C) on the struct-of-arrays program encoding of
:mod:`repro.ir.arena`, working on *flow ids* (fids) into preallocated flat
side tables:

* value states and input states live in two plain lists indexed by fid
  (the states themselves are hash-consed
  :class:`~repro.lattice.value_state.ValueState` objects, so change
  detection uses ``is``);
* the enabled / worklist-membership / link-queue / saturated bits live in
  ``bytearray``\\ s;
* the build-time edges (uses, observers, predicate targets, incoming
  predicates) are read straight from the arena's CSR columns — slices of
  an attached buffer's ``memoryview`` columns, or of an in-memory
  lowering's lists — while the edges the solve *adds* (field links, call
  links, ``pred_on`` fan-out) go to small dynamic side tables;
* "make a method reachable" is "enable an fid range" — no PVPG build, no
  method-body decode: the kernel never touches ``method.blocks``.

The worklist drains oldest-first; the counters (``steps`` / ``joins`` /
``transfers`` / ``saturated_flows``) are pinned by the CI solver-steps
gate.  A solve-time use edge is deduplicated by one integer edge key, and
an invoke re-link resolves only the receiver types it has not resolved yet
in this solve.  The executable specification in
:mod:`repro.checks.reference` is the independent check of the fixpoint:
the fuzz oracle's ``kernel-divergence`` invariant and the identity grids
compare the two.

The kernel solves every :class:`~repro.ir.arena.ArenaProgram` — attached
to a buffer, or over a plain program's in-memory lowering
(:func:`~repro.ir.arena.lowered_program`); :class:`~repro.core.analysis.
SkipFlowAnalysis` always runs it.  Its mutable tables live in an
:class:`ArenaSolverState` that outlives the solve: after a monotone delta
extends the program (the delta's lowering appended after the arena's fids,
see :class:`~repro.ir.arena.lowering.ExtendedArena`), a solver built
around that state *resumes* it (:meth:`ArenaKernelSolver.solve`,
:meth:`ArenaKernelSolver._reattach`).

The result queries — call edges, call targets, parameter / return / field
states (:meth:`ArenaKernelSolver.call_edges` and friends) and the image
report inputs (:meth:`ArenaKernelSolver.image_counters`,
:meth:`ArenaKernelSolver.dead_code_rows`) — read the flat tables
directly.  Only consumers that walk flows (audits, ``repro pvpg``) need
the :attr:`ArenaKernelSolver.state` property, which lazily inflates the
tables into a :class:`~repro.core.state.SolverState` (PVPG objects,
ordered edge sets, counters).  Inflation reconstructs flows through their
real constructors and never thaws a method body; it costs more than the
propagation itself, which is why it is deferred.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.flows import (
    FilterCompareFlow,
    FilterTypeFlow,
    Flow,
    InvokeFlow,
    LoadFieldFlow,
    ParameterFlow,
    PhiFlow,
    PhiPredFlow,
    PredOnFlow,
    ReturnFlow,
    SourceFlow,
    StoreFieldFlow,
)
from repro.core.compare import compare_states
from repro.core.kernel.saturation import (
    AllocatedTypeSaturation,
    make_saturation_policy,
)
from repro.core.pvpg import BranchKind, BranchRecord, MethodPVPG, ProgramPVPG
from repro.core.state import SnapshotMismatchError, SolverState, SolverStateError
from repro.ir.arena import ArenaProgram, schema
from repro.ir.arena.lowering import ExtendedArena
from repro.ir.delta import ProgramFingerprint, diff_fingerprints
from repro.ir.instructions import (
    Condition,
    If,
    InstanceOfCondition,
    Invoke,
    InvokeKind,
)
from repro.ir.types import INT_TYPE_NAME, NULL_TYPE_NAME, MethodSignature
from repro.ir.values import ConstantExpr, ConstKind, Value
from repro.lattice.typeset import filter_instanceof
from repro.lattice.value_state import ValueState


_EMPTY = ValueState.empty()
_INT_ONE = ValueState.of_int(1)

_C_INT = schema.CONST_INDEX[ConstKind.INT]
_C_ANY = schema.CONST_INDEX[ConstKind.ANY]
_C_NEW = schema.CONST_INDEX[ConstKind.NEW]
_CS_STATIC = schema.INVOKE_INDEX[InvokeKind.STATIC]
_CS_VIRTUAL = schema.INVOKE_INDEX[InvokeKind.VIRTUAL]

_K_SOURCE = schema.K_SOURCE
_K_PRED_ON = schema.K_PRED_ON
_K_PHI_PRED = schema.K_PHI_PRED
_K_RETURN = schema.K_RETURN
_K_INVOKE = schema.K_INVOKE
_K_LOAD_FIELD = schema.K_LOAD_FIELD
_K_STORE_FIELD = schema.K_STORE_FIELD
_K_FILTER_TYPE = schema.K_FILTER_TYPE
_K_FILTER_COMPARE = schema.K_FILTER_COMPARE

#: Flow kinds that correspond to actual instructions in the method body —
#: mirror of ``repro.image.dce._INSTRUCTION_FLOW_KINDS`` as kind indices.
_INSTRUCTION_KINDS = frozenset({
    schema.K_SOURCE,
    schema.K_LOAD_FIELD,
    schema.K_STORE_FIELD,
    schema.K_INVOKE,
    schema.K_RETURN,
})


class ArenaSolverState:
    """The arena kernel's fixpoint: the flat tables, detached from the solver.

    The mutable half of a solve, which outlives it.  An
    :class:`ArenaKernelSolver` constructed around a state that already
    solved *resumes* it over the same :class:`~repro.ir.arena.ArenaProgram`
    after a monotone delta extended it (old fids keep their meaning; the
    tables grow by the new ones).  The tables, by fid unless noted:

    * ``st`` / ``inp`` — ``VSout`` / ``VSin`` (hash-consed value states);
    * ``enabled`` / ``in_worklist`` / ``in_link_queue`` / ``saturated``
      bits, and ``activated`` by method id;
    * the edges a solve adds: ``extra_uses`` per source fid (in addition
      order), ``linked_callees`` per invoke fid, ``pred_on_targets``;
    * ``edge_keys`` — every solve-time use edge as one integer key
      ``source << 32 | target``, the duplicate-edge check.  A cache: it
      is not persisted, and :meth:`from_bytes` rebuilds it from
      ``extra_uses``.  No static edge needs a key: build-time use edges
      target phi, filter, store and return flows, solve-time ones
      parameter, invoke, load and field flows, so the two never meet;
    * ``activated_mids`` / ``touched_fields`` — activation and first-link
      order, the inflated PVPG's method-graph and field-flow orders;
    * ``reachable`` / ``stub_methods``, the counters, ``seeded_roots`` and
      ``stub_links`` (invoke fid, callee signature), ``solve_count``.

    Plus ``config`` and the ``program`` the tables index.  A state belongs
    to one program object and one live solver at a time.
    :meth:`to_bytes` / :meth:`from_bytes` pickle the tables (value states
    re-intern on load) — the one persisted form of a solver state, which
    ``--save-state`` files, the snapshot store, daemon parks and the
    daemon's stored base fixpoints all use; a restored state checks that
    the program it is attached to has the arena and fingerprint it was
    written against, or extends that arena by monotone deltas.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.program: Optional[ArenaProgram] = None
        #: The fingerprint a restored state was verified against (``None``
        #: for an in-memory state: its session tracks monotonicity).
        self.fingerprint = None
        self.st: List[ValueState] = []
        self.inp: List[ValueState] = []
        self.enabled = bytearray()
        self.in_worklist = bytearray()
        self.in_link_queue = bytearray()
        self.saturated = bytearray()
        self.activated = bytearray()
        self.extra_uses: Dict[int, List[int]] = {}
        #: ``source << 32 | target`` of every edge in ``extra_uses``.
        self.edge_keys: Set[int] = set()
        self.linked_callees: Dict[int, Set[str]] = {}
        self.pred_on_targets: List[int] = []
        self.activated_mids: List[int] = []
        self.touched_fields: List[int] = []
        self.touched_field_set: Set[int] = set()
        self.reachable: Set[str] = set()
        self.stub_methods: Set[str] = set()
        self.steps = 0
        self.joins = 0
        self.transfers = 0
        self.saturated_flows = 0
        self.seeded_roots: List[str] = []
        self.stub_links: List[Tuple[int, MethodSignature]] = []
        self.solve_count = 0

    def counters(self) -> Dict[str, int]:
        """The cumulative effort counters (diff around a solve for deltas)."""
        return {
            "steps": self.steps,
            "joins": self.joins,
            "transfers": self.transfers,
            "saturated_flows": self.saturated_flows,
        }

    def grow(self, arena) -> None:
        """Extend the tables to cover every fid and method id of ``arena``.

        New flows start empty and disabled, except field flows, which are
        enabled from the start (``FieldFlow.__init__``); they are never
        predicate targets, so the bit is inert until a store links one.
        """
        old = len(self.st)
        extra = arena.num_flows - old
        if extra > 0:
            self.st.extend([_EMPTY] * extra)
            self.inp.extend([_EMPTY] * extra)
            for bits in (self.enabled, self.in_worklist, self.in_link_queue,
                         self.saturated):
                bits.extend(bytes(extra))
            enabled = self.enabled
            for fid in arena.field_flow_ids():
                if fid >= old:
                    enabled[fid] = 1
        methods = arena.num_methods - len(self.activated)
        if methods > 0:
            self.activated.extend(bytes(methods))

    def inflate(self) -> SolverState:
        """The fixpoint as an object-graph :class:`SolverState` (a copy).

        For consumers that walk flows — the audits, ``repro pvpg``; see
        :meth:`ArenaKernelSolver._inflate`.  Every bit the tables hold is
        carried over, worklist residue included, so an audit of the copy
        audits the tables.
        """
        return ArenaKernelSolver(self.program, self.config, self).state

    # ------------------------------------------------------------------ #
    # Persistence: the tables, pickled
    # ------------------------------------------------------------------ #
    _TABLES = ("st", "inp", "enabled", "in_worklist", "in_link_queue",
               "saturated", "activated", "extra_uses", "linked_callees",
               "pred_on_targets", "activated_mids", "touched_fields",
               "reachable", "stub_methods", "steps", "joins", "transfers",
               "saturated_flows", "seeded_roots", "stub_links",
               "solve_count")

    def to_bytes(self, program: ArenaProgram) -> bytes:
        """Pickle the tables, stamped with ``program``'s arena and fingerprint.

        ``program`` is the one the tables index (the one they were solved
        or restored over, maybe extended by deltas since).  No IR is
        written: fids, method ids and qualified names refer to the
        program, which a restore must rebuild identically
        (:meth:`from_bytes` checks).  Any other program — a thawed or
        re-frozen copy, whose ids need not match — raises
        :class:`~repro.core.state.SolverStateError` instead of stamping
        tables that index another arena.
        """
        if program is None or self.program is not program:
            raise SolverStateError(
                "cannot snapshot: the arena state's tables index another "
                "program than the one given")
        payload = {name: getattr(self, name) for name in self._TABLES}
        payload.update(
            snapshot_version=ARENA_SNAPSHOT_VERSION, config=self.config,
            fingerprint=ProgramFingerprint.of(program),
            num_flows=program.arena.num_flows,
            num_methods=program.arena.num_methods)
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes, program: ArenaProgram) -> "ArenaSolverState":
        """Restore pickled tables over ``program``.

        ``program`` is the one the tables were written against, or one
        that *extends* it: an attached program grown by monotone deltas,
        whose :class:`~repro.ir.arena.lowering.ExtendedArena` chain leads
        back to an arena with the stamped fid and method counts.  That
        arena's fingerprint must be the stamped one; the tables then index
        a prefix of ``program``'s fids, and they grow to the rest when a
        solver resumes them.

        Raises :class:`~repro.core.state.SolverStateError` on an unreadable
        or foreign-version payload or one whose config no longer validates
        (unpickling skips ``AnalysisConfig.__post_init__``: a policy this
        code no longer has would otherwise fail deep inside the resumed
        solve), and :class:`~repro.core.state.SnapshotMismatchError` when
        neither ``program``'s arena nor any base it extends has the counts
        and the fingerprint the tables were written against: resuming them
        would read the wrong flows.
        """
        try:
            payload = pickle.loads(blob)
        except Exception as error:
            raise SolverStateError(
                f"unreadable arena solver-state snapshot: {error}") from error
        version = (payload.get("snapshot_version")
                   if isinstance(payload, dict) else None)
        if version != ARENA_SNAPSHOT_VERSION:
            raise SolverStateError(
                f"unsupported arena solver-state snapshot version "
                f"{version!r} (expected {ARENA_SNAPSHOT_VERSION})")
        if not isinstance(program, ArenaProgram):
            raise SnapshotMismatchError(
                "an arena solver state resumes only over an arena program")
        stamped = (payload["num_flows"], payload["num_methods"])
        arena = program.arena
        while ((arena.num_flows, arena.num_methods) != stamped
               and isinstance(arena, ExtendedArena)):
            arena = arena.base
        if (arena.num_flows, arena.num_methods) != stamped:
            raise SnapshotMismatchError(
                f"arena snapshot does not match this program: it covers "
                f"{payload['num_flows']} flows and {payload['num_methods']} "
                f"methods, the program has {program.arena.num_flows} and "
                f"{program.arena.num_methods}")
        fingerprint = arena.fingerprint
        if fingerprint != payload["fingerprint"]:
            delta = diff_fingerprints(payload["fingerprint"], fingerprint)
            raise SnapshotMismatchError(
                "arena snapshot does not match this program: "
                + ("; ".join(delta.violations) or delta.summary()))
        state = cls(_revalidated(payload["config"]))
        for name in cls._TABLES:
            setattr(state, name, payload[name])
        state.touched_field_set = set(state.touched_fields)
        state.edge_keys = {source << 32 | target
                           for source, targets in state.extra_uses.items()
                           for target in targets}
        state.program = program
        state.fingerprint = fingerprint
        return state


#: Bumped whenever :meth:`ArenaSolverState.to_bytes`'s payload changes.
ARENA_SNAPSHOT_VERSION = 1


def _revalidated(config):
    """Re-run a config's own validation, which unpickling skips."""
    try:
        return replace(config)
    except (TypeError, ValueError) as error:
        raise SolverStateError(
            f"solver-state snapshot carries an invalid config: {error}"
        ) from error


class ArenaKernelSolver:
    """The fixed-point solver over an arena's integer flow ids.

    After :meth:`solve` it offers the ``state`` / ``pvpg`` / counter
    surface (``state`` inflates lazily on first access).  The program's
    columns — an attached buffer, the zero-decode worker path, an
    in-memory lowering, or either extended by deltas — are solved on
    directly.  It borrows its mutable tables from an
    :class:`ArenaSolverState`: a fresh one for a cold solve, or a solved
    one to resume after the program grew.
    """

    def __init__(self, program: ArenaProgram, config,
                 state: Optional[ArenaSolverState] = None) -> None:
        self.program = program
        self.hierarchy = program.hierarchy
        self.config = config
        self.arena = arena = program.arena

        if state is None:
            state = ArenaSolverState(config)
        elif state.config != config:
            raise SolverStateError(
                f"cannot resume: the state was solved under configuration "
                f"{getattr(state.config, 'name', state.config)!r}, not "
                f"{getattr(config, 'name', config)!r}")
        elif state.program is not None and state.program is not program:
            raise SolverStateError(
                "cannot resume: the arena state was solved over another "
                "program object")
        state.program = program
        state.grow(arena)
        #: The borrowed tables (see :class:`ArenaSolverState`).
        self.arena_state = state
        #: ``VSout`` / ``VSin`` per fid (hash-consed ValueState objects).
        self._st: List[ValueState] = state.st
        self._inp: List[ValueState] = state.inp
        self._enabled = state.enabled
        self._in_worklist = state.in_worklist
        self._in_link_queue = state.in_link_queue
        self._saturated = state.saturated

        #: Solve-time use edges per source fid, in addition order.
        self._extra_uses: Dict[int, List[int]] = state.extra_uses
        self._edge_keys: Set[int] = state.edge_keys
        #: The callees linked per invoke fid.
        self._linked_callees: Dict[int, Set[str]] = state.linked_callees
        #: ``pred_on``'s fan-out, grown per method activation.
        self._pred_on_targets: List[int] = state.pred_on_targets
        self._activated = state.activated
        #: Activation order — the inflated PVPG's method-graph order.
        self._activated_mids: List[int] = state.activated_mids
        #: Field fids in first-link order — the inflated PVPG's
        #: ``FieldFlow`` order (``all_flows`` iterates it).
        self._touched_fields: List[int] = state.touched_fields
        self._touched_field_set: Set[int] = state.touched_field_set

        self._reachable: Set[str] = state.reachable
        self._stub_methods: Set[str] = state.stub_methods
        self._steps = state.steps
        self._joins = state.joins
        self._transfers = state.transfers
        self._saturated_count = state.saturated_flows
        self._seeded_roots: List[str] = state.seeded_roots
        self._stub_links: List[Tuple[int, MethodSignature]] = state.stub_links
        self._solve_count = state.solve_count

        self._worklist: Deque[int] = deque()
        self._pending_links: Deque[int] = deque()
        self._saturation: Optional[AllocatedTypeSaturation] = None
        self._solve_roots: tuple = ()
        self._signatures: Dict[int, MethodSignature] = {}
        #: Per virtual invoke fid, the receiver types its links resolved in
        #: this solve (reset by :meth:`solve`: a memo of one solve only).
        self._resolved_types: Dict[int, FrozenSet[str]] = {}
        #: Kinds whose transfer is not the pass-through: the filters this
        #: configuration enables (every other kind copies ``VSin``).
        self._filtering_kinds = frozenset(
            kind for kind, on in ((_K_FILTER_TYPE, config.filter_type_checks),
                                  (_K_FILTER_COMPARE, config.filter_comparisons))
            if on)

        #: Lazily inflated by the :attr:`state` property after :meth:`solve`.
        self._inflated: Optional[SolverState] = None
        self._solved = state.solve_count > 0

    # ------------------------------------------------------------------ #
    # State views
    # ------------------------------------------------------------------ #
    @property
    def reachable(self) -> Set[str]:
        return self._reachable

    @property
    def stub_methods(self) -> Set[str]:
        return self._stub_methods

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def joins(self) -> int:
        return self._joins

    @property
    def transfers(self) -> int:
        return self._transfers

    @property
    def saturated_flows(self) -> int:
        return self._saturated_count

    @property
    def state(self) -> SolverState:
        """The fixpoint as an object-graph :class:`SolverState` (lazy).

        Inflation rebuilds real :class:`~repro.core.flows.Flow` objects from
        the flat tables, which costs more than the propagation itself —
        consumers that only need counters, reachable sets, or the image
        reports (:meth:`image_counters`, :meth:`dead_code_rows`) never pay
        it.  The first access materializes and memoizes.
        """
        if self._inflated is None:
            if not self._solved:
                raise RuntimeError("solve() has not run; no state to inflate")
            self._inflated = self._inflate()
        return self._inflated

    @property
    def pvpg(self) -> ProgramPVPG:
        return self.state.pvpg

    # ------------------------------------------------------------------ #
    # Image-report extraction (no inflation)
    # ------------------------------------------------------------------ #
    def image_counters(self) -> Dict[str, int]:
        """The Section 6 counter metrics straight from the flat tables.

        Bit-identical to walking the inflated PVPG with
        :func:`repro.image.metrics.collect_counter_metrics`: a branch counts
        when both of its filter predicates are live (enabled with a
        non-empty state), an invoke counts as polymorphic when it is an
        enabled virtual call with a receiver and at least two linked
        callees.
        """
        arena = self.arena
        enabled = self._enabled
        st = self._st
        type_checks = null_checks = primitive_checks = poly_calls = 0
        for mid in self._activated_mids:
            for row in range(arena.method_br_ptr[mid],
                             arena.method_br_ptr[mid + 1]):
                then_fid = arena.br_then[row]
                else_fid = arena.br_else[row]
                if not (enabled[then_fid] and not st[then_fid].is_empty
                        and enabled[else_fid] and not st[else_fid].is_empty):
                    continue  # removable: at most one branch is live
                kind = schema.BRANCH_KINDS[arena.br_kind[row]]
                if kind is BranchKind.TYPE_CHECK:
                    type_checks += 1
                elif kind is BranchKind.NULL_CHECK:
                    null_checks += 1
                else:
                    primitive_checks += 1
            for index in range(arena.method_inv_ptr[mid],
                               arena.method_inv_ptr[mid + 1]):
                fid = arena.method_inv_val[index]
                if arena.flow_aux2[fid] < 0:  # no receiver: not virtual
                    continue
                if arena.cs_kind[arena.flow_aux1[fid]] != _CS_VIRTUAL:
                    continue
                if not enabled[fid]:
                    continue
                callees = self._linked_callees.get(fid)
                if callees is not None and len(callees) >= 2:
                    poly_calls += 1
        return {
            "type_checks": type_checks,
            "null_checks": null_checks,
            "primitive_checks": primitive_checks,
            "poly_calls": poly_calls,
        }

    def dead_code_rows(self) -> List[Tuple[str, int, int, int, int]]:
        """Per-method ``(name, live, dead, removable_branches, total_branches)``.

        One row per reachable method with a body (stubs have none), sorted
        by qualified name like
        :meth:`~repro.core.results.AnalysisResult.reachable_graphs`; live
        and dead count instruction-kind flows (sources, loads, stores,
        invokes, returns) by their enabled bit — the inputs of
        :func:`repro.image.dce.eliminate_dead_code`, without the PVPG.
        """
        arena = self.arena
        enabled = self._enabled
        st = self._st
        flow_kind = arena.flow_kind
        rows: List[Tuple[str, int, int, int, int]] = []
        for mid in self._activated_mids:
            live = dead = 0
            for fid in range(arena.method_flow_lo[mid],
                             arena.method_flow_hi[mid]):
                if flow_kind[fid] not in _INSTRUCTION_KINDS:
                    continue
                if enabled[fid]:
                    live += 1
                else:
                    dead += 1
            removable = 0
            lo = arena.method_br_ptr[mid]
            hi = arena.method_br_ptr[mid + 1]
            for row in range(lo, hi):
                then_fid = arena.br_then[row]
                else_fid = arena.br_else[row]
                if not (enabled[then_fid] and not st[then_fid].is_empty
                        and enabled[else_fid] and not st[else_fid].is_empty):
                    removable += 1
            rows.append((arena.qualified_name(mid), live, dead, removable,
                         hi - lo))
        rows.sort(key=lambda entry: entry[0])
        return rows

    # ------------------------------------------------------------------ #
    # Result queries (no inflation): AnalysisResult delegates here
    # ------------------------------------------------------------------ #
    def call_edges(self, callers: Iterable[str]) -> List[Tuple[str, str]]:
        """The (caller, callee) pairs out of the reachable ``callers``.

        In ``AnalysisResult.call_edges`` order: callers by qualified name,
        their invokes in body order, each invoke's callees sorted.
        """
        arena = self.arena
        inv_ptr = arena.method_inv_ptr
        inv_val = arena.method_inv_val
        linked = self._linked_callees
        edges: List[Tuple[str, str]] = []
        for name in sorted(callers):
            mid = arena.mid_of(name)
            if mid is None or not self._activated[mid]:
                continue
            for fid in inv_val[inv_ptr[mid]:inv_ptr[mid + 1]]:
                for callee in sorted(linked.get(fid, ())):
                    edges.append((name, callee))
        return edges

    def _reachable_mid(self, qualified_name: str) -> int:
        mid = self.arena.mid_of(qualified_name)
        if mid is None or not self._activated[mid]:
            raise KeyError(
                f"method {qualified_name!r} was not analyzed (not reachable)")
        return mid

    def call_targets(self, qualified_name: str) -> Dict[str, FrozenSet[str]]:
        """Call-site label -> linked callees in one reachable method."""
        arena = self.arena
        mid = self._reachable_mid(qualified_name)
        fids = arena.method_inv_val[
            arena.method_inv_ptr[mid]:arena.method_inv_ptr[mid + 1]]
        return {f"{arena.string(arena.flow_label[fid])}#{index}":
                frozenset(self._linked_callees.get(fid, ()))
                for index, fid in enumerate(fids)}

    def parameter_state(self, qualified_name: str, index: int) -> ValueState:
        arena = self.arena
        mid = self._reachable_mid(qualified_name)
        fids = arena.method_param_val[
            arena.method_param_ptr[mid]:arena.method_param_ptr[mid + 1]]
        return self._st[fids[index]]

    def return_state(self, qualified_name: str) -> ValueState:
        arena = self.arena
        mid = self._reachable_mid(qualified_name)
        state = _EMPTY
        for fid in arena.method_ret_val[
                arena.method_ret_ptr[mid]:arena.method_ret_ptr[mid + 1]]:
            if self._enabled[fid]:
                state = state.join(self._st[fid])
        return state

    def field_state(self, qualified_field_name: str) -> ValueState:
        fid = self.arena.field_fid(qualified_field_name)
        if fid is None or fid not in self._touched_field_set:
            return _EMPTY
        return self._st[fid]

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, roots: Optional[Iterable[str]] = None) -> None:
        """Run the analysis to a fixed point from the root methods.

        On a fresh state this is the cold solve.  On a state that already
        solved, the iteration *resumes* over the extended arena: the
        worklist residue is rescheduled, saturated flows re-collapse
        against the current sentinels, the root seeds and stub effects are
        re-played (:meth:`_reattach`), and only then are the roots seeded.
        The counters go back to the state also when the solve raises.
        """
        resuming = self._solve_count > 0
        self._resolved_types = {}
        try:
            self._enabled[0] = 1
            self._st[0] = PredOnFlow.artificial_on_enable

            root_names = (list(roots) if roots is not None
                          else list(self.program.entry_points))
            if not root_names:
                raise ValueError(
                    "no root methods: provide roots or program entry points")
            self._saturation = make_saturation_policy(
                self.config.saturation_policy, self.config.saturation_threshold,
                self.program, tuple(root_names))
            self._solve_roots = tuple(dict.fromkeys(
                list(self._seeded_roots) + root_names))
            self._refresh_saturation()
            previously_seeded = set(self._seeded_roots)
            if resuming:
                self._reattach()
            for root in root_names:
                mid = self._activate(root)
                if mid is None:
                    continue
                if resuming and root in previously_seeded:
                    continue  # _reattach already re-played this root's seed.
                self._seed_root_parameters(mid)
                if root not in previously_seeded:
                    self._seeded_roots.append(root)
                    previously_seeded.add(root)
            self._solve_count += 1
            self._run()
            while self._refresh_saturation():
                self._recollapse_saturated()
                self._run()
        finally:
            state = self.arena_state
            state.steps = self._steps
            state.joins = self._joins
            state.transfers = self._transfers
            state.saturated_flows = self._saturated_count
            state.solve_count = self._solve_count
        self._solved = True

    def _reattach(self) -> None:
        """Prepare a previously solved state for a warm continuation.

        The worklist residue (empty at a fixpoint) re-enters the queues in
        ``all_flows()`` order.  Saturated flows re-collapse against the
        current sentinels: joins into a saturated flow are skipped, and a
        sentinel only widens as the program grows, so without the
        re-collapse a resume would under-approximate a cold solve.  The
        conservative root seeds and stub effects are re-played, because
        the hierarchy may have grown under them (a no-op join otherwise).
        """
        in_worklist = self._in_worklist
        in_link_queue = self._in_link_queue
        if 1 in in_worklist or 1 in in_link_queue:
            flow_kind = self.arena.flow_kind
            for fid in self._iter_all_fids():
                if in_worklist[fid]:
                    self._worklist.append(fid)
                if flow_kind[fid] == schema.K_INVOKE and in_link_queue[fid]:
                    self._pending_links.append(fid)
        self._recollapse_saturated()
        for root in self._seeded_roots:
            mid = self.arena.mid_of(root)
            if mid is not None and self._activated[mid]:
                self._seed_root_parameters(mid)
        for fid, signature in list(self._stub_links):
            self._apply_stub_effects(fid, signature)

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #
    def _activate(self, qualified_name: str) -> Optional[int]:
        """Make a method reachable: enable its fid range."""
        arena = self.arena
        mid = arena.mid_of(qualified_name)
        if mid is None:
            self._stub_methods.add(qualified_name)
            return None
        if self._activated[mid]:
            return mid
        self._activated[mid] = 1
        self._activated_mids.append(mid)
        self._reachable.add(qualified_name)
        # pred_on's fan-out grows before the enable loop below runs.
        plo = arena.method_pred_ptr[mid]
        phi = arena.method_pred_ptr[mid + 1]
        self._pred_on_targets.extend(arena.method_pred_val[plo:phi])
        lo = arena.method_flow_lo[mid]
        hi = arena.method_flow_hi[mid]
        enabled = self._enabled
        st = self._st
        enable = self._enable
        if self.config.use_predicates:
            pin_ptr = arena.pin_ptr
            pin_val = arena.pin_val
            for fid in range(lo, hi):
                for predicate in pin_val[pin_ptr[fid]:pin_ptr[fid + 1]]:
                    if enabled[predicate] and not st[predicate].is_empty:
                        enable(fid)
                        break
        else:
            for fid in range(lo, hi):
                enable(fid)
        return mid

    def _signature_of(self, mid: int) -> MethodSignature:
        signature = self._signatures.get(mid)
        if signature is None:
            signature = self.arena.method_signature(mid)
            self._signatures[mid] = signature
        return signature

    def _seed_root_parameters(self, mid: int) -> None:
        arena = self.arena
        signature = self._signature_of(mid)
        lo = arena.method_param_ptr[mid]
        hi = arena.method_param_ptr[mid + 1]
        for fid in arena.method_param_val[lo:hi]:
            declared = self._declared_parameter_type(signature, fid)
            self._inject(fid, self._conservative_state(declared))

    def _declared_parameter_type(self, signature: MethodSignature,
                                 fid: int) -> Optional[str]:
        arena = self.arena
        declared = arena.opt_string(arena.flow_aux2[fid])
        if declared is not None:
            return declared
        index = arena.flow_aux1[fid]
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
    # Saturation refinement
    # ------------------------------------------------------------------ #
    def _refresh_saturation(self) -> bool:
        saturation = self._saturation
        if saturation is None:
            return False
        return saturation.refresh_origins(
            frozenset(self._reachable),
            tuple(signature for _, signature in self._stub_links),
            self._solve_roots)

    def _iter_all_fids(self) -> Iterator[int]:
        """Fids in the inflated PVPG's ``all_flows()`` order: pred_on,
        field flows in first-link order, then per-method flows in
        activation order."""
        arena = self.arena
        yield 0
        yield from self._touched_fields
        for mid in self._activated_mids:
            yield from range(arena.method_flow_lo[mid],
                             arena.method_flow_hi[mid])

    def _recollapse_saturated(self) -> None:
        saturation = self._saturation
        if saturation is None:
            return
        st = self._st
        for fid in self._iter_all_fids():
            if not self._saturated[fid]:
                continue
            refreshed = st[fid].join(saturation.sentinel)
            if refreshed is not st[fid]:
                self._inp[fid] = refreshed
                st[fid] = refreshed
                if self._enabled[fid]:
                    self._schedule(fid)

    # ------------------------------------------------------------------ #
    # Worklist machinery
    # ------------------------------------------------------------------ #
    def _schedule(self, fid: int) -> None:
        if not self._in_worklist[fid]:
            self._in_worklist[fid] = 1
            self._worklist.append(fid)

    def _schedule_link(self, fid: int) -> None:
        if not self._in_link_queue[fid]:
            self._in_link_queue[fid] = 1
            self._pending_links.append(fid)

    def _run(self) -> None:
        """Drain the link queue, then the worklist, to a fixed point.

        Processing a flow — skip it when disabled, deliver ``VSout`` along
        every use edge (the Propagate rule), notify its observers, and
        enable its predicate targets once its state is non-empty — is
        inlined over local bindings, and so are the two hot callees: the
        pass-through transfer of a delivery target (every kind but a
        filter this configuration enables, which goes through
        :meth:`_recompute`) and the observer dispatch by kind.  A
        predicate target that is already enabled is skipped before the
        :meth:`_enable` call.  ``steps``, the delivery ``joins`` and the
        inline ``transfers`` are counted in locals and added to the solver
        on the way out, also when the drain raises.  No edge out of the
        drained flow is added while it drains (linking runs only off the
        link queue or on *other* flows), so the static CSR rows are
        iterated in place; a row with solve-time extras is copied once
        into a list, because attached programs hold ``memoryview`` columns
        that do not concatenate with lists.
        """
        arena = self.arena
        flow_kind = arena.flow_kind
        use_ptr = arena.use_ptr
        use_val = arena.use_val
        obs_ptr = arena.obs_ptr
        obs_val = arena.obs_val
        ptgt_ptr = arena.ptgt_ptr
        ptgt_val = arena.ptgt_val
        enabled = self._enabled
        in_worklist = self._in_worklist
        in_link_queue = self._in_link_queue
        saturated = self._saturated
        st = self._st
        inp = self._inp
        extra_uses = self._extra_uses.get
        pred_on_targets = self._pred_on_targets
        filtering_kinds = self._filtering_kinds
        saturation = self._saturation
        threshold = saturation.threshold if saturation is not None else None
        recompute = self._recompute
        saturate = self._saturate
        link_fields = self._link_fields
        enable = self._enable
        link_invoke = self._link_invoke
        worklist = self._worklist
        pending = self._pending_links
        next_flow = worklist.popleft
        next_link = pending.popleft
        schedule_flow = worklist.append
        schedule_link = pending.append
        steps = joins = transfers = 0
        try:
            while worklist or pending:
                if pending:
                    fid = next_link()
                    in_link_queue[fid] = 0
                    if enabled[fid]:
                        link_invoke(fid)
                    steps += 1
                    continue
                fid = next_flow()
                in_worklist[fid] = 0
                steps += 1
                if not enabled[fid]:
                    continue
                targets = use_val[use_ptr[fid]:use_ptr[fid + 1]]
                extras = extra_uses(fid)
                if extras:
                    targets = [*targets, *extras]
                for target in targets:
                    if saturated[target]:
                        continue
                    joins += 1
                    old_input = inp[target]
                    # Read per target: a use edge may lead back to ``fid``.
                    new_input = old_input.join(st[fid])
                    if new_input is old_input:
                        continue
                    inp[target] = new_input
                    if flow_kind[target] in filtering_kinds:
                        recompute(target)
                        continue
                    transfers += 1
                    old_state = st[target]
                    new_state = old_state.join(new_input)
                    if new_state is old_state:
                        continue
                    if (threshold is not None
                            and len(new_state.reference_types) > threshold):
                        saturate(target, new_state.join(saturation.sentinel))
                        continue
                    st[target] = new_state
                    if enabled[target] and not in_worklist[target]:
                        in_worklist[target] = 1
                        schedule_flow(target)
                for observer in obs_val[obs_ptr[fid]:obs_ptr[fid + 1]]:
                    kind = flow_kind[observer]
                    if kind == _K_INVOKE:
                        if enabled[observer] and not in_link_queue[observer]:
                            in_link_queue[observer] = 1
                            schedule_link(observer)
                    elif kind == _K_LOAD_FIELD or kind == _K_STORE_FIELD:
                        if enabled[observer]:
                            link_fields(observer)
                    elif kind == _K_FILTER_COMPARE:
                        recompute(observer)
                if not st[fid].is_empty:
                    for target in (pred_on_targets if fid == 0 else
                                   ptgt_val[ptgt_ptr[fid]:ptgt_ptr[fid + 1]]):
                        if not enabled[target]:
                            enable(target)
        finally:
            self._steps += steps
            self._joins += joins
            self._transfers += transfers

    def _inject(self, fid: int, state: ValueState) -> None:
        """Join a state into a flow's input (roots, stubs, solve-time edges)."""
        if self._saturated[fid]:
            return
        self._joins += 1
        new_input = self._inp[fid].join(state)
        if new_input is not self._inp[fid]:
            self._inp[fid] = new_input
            self._recompute(fid)

    def _filter(self, fid: int) -> ValueState:
        """The transfer of an enabled filter (TypeCheck / Cond)."""
        arena = self.arena
        if arena.flow_kind[fid] == _K_FILTER_TYPE:
            return filter_instanceof(
                self._inp[fid], self.hierarchy,
                arena.string(arena.flow_aux1[fid]),
                bool(arena.flow_aux2[fid]))
        observed_fid = arena.flow_aux2[fid]
        observed = self._st[observed_fid] if observed_fid >= 0 else _EMPTY
        return compare_states(
            schema.COMPARE_OPS[arena.flow_aux1[fid]],
            self._inp[fid], observed)

    def _recompute(self, fid: int) -> None:
        """Apply the flow's transfer (PassThrough unless an enabled filter)."""
        self._transfers += 1
        if self.arena.flow_kind[fid] in self._filtering_kinds:
            output = self._filter(fid)
        else:
            output = self._inp[fid]
        new_state = self._st[fid].join(output)
        if new_state is not self._st[fid]:
            saturation = self._saturation
            if (saturation is not None
                    and len(new_state.reference_types) > saturation.threshold):
                self._saturate(fid, new_state.join(saturation.sentinel))
                return
            self._st[fid] = new_state
            if self._enabled[fid]:
                self._schedule(fid)

    def _saturate(self, fid: int, sentinel: ValueState) -> None:
        self._saturated_count += 1
        self._saturated[fid] = 1
        self._inp[fid] = sentinel
        self._st[fid] = sentinel
        if self._enabled[fid]:
            self._schedule(fid)

    def _source_state(self, fid: int) -> ValueState:
        """What enabling a source flow produces (the Source rule)."""
        arena = self.arena
        row = arena.flow_aux1[fid]
        kind = arena.const_kind[row]
        if kind == _C_INT:
            if self.config.track_primitives:
                return ValueState.of_int(arena.const_int[row])
            return ValueState.any_primitive()
        if kind == _C_ANY:
            return ValueState.any_primitive()
        if kind == _C_NEW:
            return ValueState.of_type(arena.string(arena.const_type[row]))
        return ValueState.null()

    def _enable(self, fid: int) -> None:
        enabled = self._enabled
        if enabled[fid]:
            return
        enabled[fid] = 1
        kind = self.arena.flow_kind[fid]
        st = self._st
        if kind == _K_SOURCE:
            st[fid] = st[fid].join(self._source_state(fid))
        # artificial_on_enable: pred_on / phi-pred carry int 1, void
        # returns carry primitive Any.
        if kind == _K_PHI_PRED or kind == _K_PRED_ON:
            st[fid] = st[fid].join(_INT_ONE)
        elif kind == _K_RETURN and self.arena.flow_aux1[fid]:
            st[fid] = st[fid].join(ValueState.any_primitive())
        if kind == _K_INVOKE:
            self._schedule_link(fid)
        elif kind == _K_LOAD_FIELD or kind == _K_STORE_FIELD:
            self._link_fields(fid)
        if not st[fid].is_empty:
            self._schedule(fid)

    def _add_use_edge(self, source: int, target: int) -> None:
        """Add a solve-time use edge once, then deliver along it.

        One integer key per edge in ``edge_keys`` is the duplicate check
        (see :class:`ArenaSolverState` for why static edges need none).
        """
        key = source << 32 | target
        edge_keys = self._edge_keys
        if key in edge_keys:
            return
        edge_keys.add(key)
        extras = self._extra_uses.get(source)
        if extras is None:
            self._extra_uses[source] = [target]
        else:
            extras.append(target)
        state = self._st[source]
        if self._enabled[source] and not state.is_empty:
            self._inject(target, state)

    # ------------------------------------------------------------------ #
    # Field linking (Load / Store rules)
    # ------------------------------------------------------------------ #
    def _link_fields(self, fid: int) -> None:
        arena = self.arena
        field_name = arena.string(arena.flow_aux1[fid])
        receiver_state = self._st[arena.flow_aux2[fid]]
        is_load = arena.flow_kind[fid] == schema.K_LOAD_FIELD
        for type_name in receiver_state.reference_types:
            declaration = self.hierarchy.lookup_field(type_name, field_name)
            if declaration is None:
                continue
            field_fid = arena.field_fid(declaration.qualified_name)
            if field_fid is None:  # pragma: no cover — fields are all frozen
                continue
            # Record the first-link order (the inflated PVPG's field order).
            if field_fid not in self._touched_field_set:
                self._touched_field_set.add(field_fid)
                self._touched_fields.append(field_fid)
            if is_load:
                self._add_use_edge(field_fid, fid)
            else:
                self._add_use_edge(fid, field_fid)

    # ------------------------------------------------------------------ #
    # Invoke linking (Invoke rule)
    # ------------------------------------------------------------------ #
    def _link_invoke(self, fid: int) -> None:
        arena = self.arena
        row = arena.flow_aux1[fid]
        method_name = arena.string(arena.cs_method_name[row])
        if arena.cs_kind[row] == _CS_STATIC:
            target_class = arena.opt_string(arena.cs_target_class[row])
            signature = self._resolve_static(target_class, method_name)
            if signature is not None:
                self._link_callee(fid, signature)
            elif target_class is not None:
                self._record_unknown_callee(
                    fid, f"{target_class}.{method_name}")
            return
        # A receiver type resolved earlier in this solve was linked then, so
        # linking it again is a no-op: resolve only the new ones, still in
        # sorted order.  Receiver states only grow, so the
        # memo is the last type set this invoke linked.
        types = self._st[arena.flow_aux2[fid]].reference_types
        resolved = self._resolved_types.get(fid)
        if resolved is not None:
            if types is resolved:
                return
            new_types = types - resolved
            if not new_types:
                return
        else:
            new_types = types
        self._resolved_types[fid] = types
        resolve = self.hierarchy.resolve
        for type_name in sorted(new_types):
            signature = resolve(type_name, method_name)
            if signature is not None:
                self._link_callee(fid, signature)

    def _resolve_static(self, target_class: Optional[str], method_name: str
                        ) -> Optional[MethodSignature]:
        if target_class is None or target_class not in self.hierarchy:
            return None
        return self.hierarchy.resolve(target_class, method_name)

    def _record_unknown_callee(self, fid: int, qualified_name: str) -> None:
        callees = self._linked_callees.setdefault(fid, set())
        if qualified_name in callees:
            return
        callees.add(qualified_name)
        self._stub_methods.add(qualified_name)
        self._inject(fid, ValueState.any_primitive())

    def _link_callee(self, fid: int, signature: MethodSignature) -> None:
        qualified = signature.qualified_name
        callees = self._linked_callees.get(fid)
        if callees is None:
            self._linked_callees[fid] = {qualified}
        elif qualified in callees:
            return
        else:
            callees.add(qualified)
        mid = self._activate(qualified)
        if mid is None:
            self._stub_links.append((fid, signature))
            self._apply_stub_effects(fid, signature)
            return
        arena = self.arena
        row = arena.flow_aux1[fid]
        arguments = arena.inv_args_val[
            arena.inv_args_ptr[row]:arena.inv_args_ptr[row + 1]]
        parameters = arena.method_param_val[
            arena.method_param_ptr[mid]:arena.method_param_ptr[mid + 1]]
        add_use_edge = self._add_use_edge
        for argument, parameter in zip(arguments, parameters):
            add_use_edge(argument, parameter)
        for return_fid in arena.method_ret_val[
                arena.method_ret_ptr[mid]:arena.method_ret_ptr[mid + 1]]:
            add_use_edge(return_fid, fid)

    def _apply_stub_effects(self, fid: int, signature: MethodSignature) -> None:
        if signature.returns_reference:
            result = self._conservative_state(signature.return_type)
        else:
            result = ValueState.any_primitive()
        self._inject(fid, result)

    # ------------------------------------------------------------------ #
    # Inflation: flat tables -> an object-graph SolverState
    # ------------------------------------------------------------------ #
    def _value_of(self, name_sid: int, type_sid: int) -> Optional[Value]:
        if name_sid == schema.NONE_ID:
            return None
        arena = self.arena
        return Value(arena.string(name_sid), arena.opt_string(type_sid))

    def _const_of(self, row: int) -> ConstantExpr:
        arena = self.arena
        kind = schema.CONST_KINDS[arena.const_kind[row]]
        if kind is ConstKind.INT:
            return ConstantExpr(kind, int_value=arena.const_int[row])
        return ConstantExpr(
            kind, type_name=arena.opt_string(arena.const_type[row]))

    def _invoke_of(self, row: int) -> Invoke:
        arena = self.arena
        lo = arena.cs_args_ptr[row]
        hi = arena.cs_args_ptr[row + 1]
        arguments = tuple(
            Value(arena.string(name_sid), arena.opt_string(type_sid))
            for name_sid, type_sid in zip(
                arena.cs_args_name[lo:hi], arena.cs_args_type[lo:hi]))
        return Invoke(
            result=self._value_of(arena.cs_result_name[row],
                                  arena.cs_result_type[row]),
            method_name=arena.string(arena.cs_method_name[row]),
            arguments=arguments,
            receiver=self._value_of(arena.cs_recv_name[row],
                                    arena.cs_recv_type[row]),
            kind=schema.INVOKE_KINDS[arena.cs_kind[row]],
            target_class=arena.opt_string(arena.cs_target_class[row]),
        )

    def _construct_flow(self, fid: int, qualified_name: str) -> Flow:
        """Rebuild one flow through its real constructor (no body thaw).

        Intra-flow references (compare observed, load/store receiver, invoke
        receiver and argument flows) are wired by the caller's fixup pass,
        after every flow object exists.
        """
        arena = self.arena
        config = self.config
        kind = arena.flow_kind[fid]
        label = arena.string(arena.flow_label[fid])
        aux1 = arena.flow_aux1[fid]
        if kind == schema.K_SOURCE:
            return SourceFlow(label, qualified_name, self._const_of(aux1))
        if kind == schema.K_PARAMETER:
            return ParameterFlow(label, qualified_name, aux1,
                                 arena.opt_string(arena.flow_aux2[fid]))
        if kind == schema.K_PHI:
            return PhiFlow(label, qualified_name)
        if kind == schema.K_PHI_PRED:
            return PhiPredFlow(label, qualified_name)
        if kind == schema.K_FILTER_TYPE:
            return FilterTypeFlow(label, qualified_name,
                                  arena.string(aux1),
                                  bool(arena.flow_aux2[fid]),
                                  config.filter_type_checks)
        if kind == schema.K_FILTER_COMPARE:
            return FilterCompareFlow(label, qualified_name,
                                     schema.COMPARE_OPS[aux1],
                                     observed=None,
                                     filtering_enabled=config.filter_comparisons)
        if kind == schema.K_LOAD_FIELD:
            return LoadFieldFlow(label, qualified_name,
                                 arena.string(aux1), None)  # type: ignore[arg-type]
        if kind == schema.K_STORE_FIELD:
            return StoreFieldFlow(label, qualified_name,
                                  arena.string(aux1), None)  # type: ignore[arg-type]
        if kind == schema.K_INVOKE:
            return InvokeFlow(label, qualified_name, self._invoke_of(aux1),
                              receiver=None, argument_flows=[])
        if kind == schema.K_RETURN:
            return ReturnFlow(label, qualified_name, bool(aux1))
        raise AssertionError(
            f"fid {fid}: kind {schema.FLOW_KINDS[kind]} is not method-owned")

    def _branch_record(self, row: int,
                       flows: Dict[int, Flow]) -> BranchRecord:
        arena = self.arena
        if arena.br_is_instanceof[row]:
            condition: object = InstanceOfCondition(
                value=Value(arena.string(arena.br_val_name[row]),
                            arena.opt_string(arena.br_val_type[row])),
                type_name=arena.string(arena.br_type_name[row]),
                negated=bool(arena.br_negated[row]))
        else:
            condition = Condition(
                op=schema.COMPARE_OPS[arena.br_op[row]],
                left=Value(arena.string(arena.br_left_name[row]),
                           arena.opt_string(arena.br_left_type[row])),
                right=Value(arena.string(arena.br_right_name[row]),
                            arena.opt_string(arena.br_right_type[row])))
        instruction = If(condition,
                         arena.string(arena.br_then_label[row]),
                         arena.string(arena.br_else_label[row]))
        return BranchRecord(
            instruction=instruction,
            kind=schema.BRANCH_KINDS[arena.br_kind[row]],
            then_predicate=flows[arena.br_then[row]],
            else_predicate=flows[arena.br_else[row]],
            block_predicate=flows[arena.br_block[row]])

    def _inflate(self) -> SolverState:
        """Materialize the fixpoint as a real :class:`SolverState`.

        One flow per fid of the activated methods (fresh uids), the field
        flows linked so far and ``pred_on``; the static CSR edges, then
        the solve-time ones in addition order; every scalar bit; the
        method-graph map in activation order and the field flows in
        first-link order.  Each flow's incoming ``predicates`` set follows
        the wiring order (only "is any enabled" is ever asked of it).
        Method bodies stay frozen: flows are rebuilt from columns.
        """
        arena = self.arena
        hierarchy = self.hierarchy
        pvpg = ProgramPVPG()
        flows: Dict[int, Flow] = {0: pvpg.pred_on}
        for field_fid in self._touched_fields:
            row = arena.flow_aux1[field_fid]
            cls = hierarchy.get(arena.string(arena.field_class[row]))
            declaration = cls.fields[arena.string(arena.field_name[row])]
            flows[field_fid] = pvpg.field_flow(declaration)
        for mid in self._activated_mids:
            qualified_name = arena.qualified_name(mid)
            graph = MethodPVPG(method=self.program.methods[qualified_name])
            for fid in range(arena.method_flow_lo[mid],
                             arena.method_flow_hi[mid]):
                flow = self._construct_flow(fid, qualified_name)
                flows[fid] = flow
                graph.register(flow)
            graph.parameter_flows = [
                flows[fid] for fid in arena.method_param_val[
                    arena.method_param_ptr[mid]:arena.method_param_ptr[mid + 1]]]
            graph.return_flows = [
                flows[fid] for fid in arena.method_ret_val[
                    arena.method_ret_ptr[mid]:arena.method_ret_ptr[mid + 1]]]
            graph.invoke_flows = [
                flows[fid] for fid in arena.method_inv_val[
                    arena.method_inv_ptr[mid]:arena.method_inv_ptr[mid + 1]]]
            graph.branch_records = [
                self._branch_record(row, flows)
                for row in range(arena.method_br_ptr[mid],
                                 arena.method_br_ptr[mid + 1])]
            pvpg.add_method_graph(graph)

        # Wiring: static CSR edges first (build order), then the solve-time
        # additions in addition order.
        for fid, flow in flows.items():
            for target in arena.use_val[
                    arena.use_ptr[fid]:arena.use_ptr[fid + 1]]:
                flow.add_use(flows[target])
            for target in self._extra_uses.get(fid, ()):
                flow.add_use(flows[target])
            for observer in arena.obs_val[
                    arena.obs_ptr[fid]:arena.obs_ptr[fid + 1]]:
                flow.add_observer(flows[observer])
            if fid == 0:
                for target in self._pred_on_targets:
                    flow.add_predicate_target(flows[target])
            else:
                for target in arena.ptgt_val[
                        arena.ptgt_ptr[fid]:arena.ptgt_ptr[fid + 1]]:
                    flow.add_predicate_target(flows[target])

        # Kind fixups: intra-method flow references and linked callees.
        for fid, flow in flows.items():
            if isinstance(flow, FilterCompareFlow):
                observed_fid = arena.flow_aux2[fid]
                flow.observed = (flows[observed_fid]
                                 if observed_fid >= 0 else None)
            elif isinstance(flow, (LoadFieldFlow, StoreFieldFlow)):
                flow.receiver = flows[arena.flow_aux2[fid]]
            elif isinstance(flow, InvokeFlow):
                receiver_fid = arena.flow_aux2[fid]
                flow.receiver = (flows[receiver_fid]
                                 if receiver_fid >= 0 else None)
                row = arena.flow_aux1[fid]
                flow.argument_flows = [
                    flows[argument] for argument in arena.inv_args_val[
                        arena.inv_args_ptr[row]:arena.inv_args_ptr[row + 1]]]
                callees = self._linked_callees.get(fid)
                if callees:
                    flow.linked_callees = set(callees)

        # Scalars: value states, enabled/saturated bits and the worklist
        # bits (all clear at a fixpoint; an audit reads them as residue).
        for fid, flow in flows.items():
            flow.state = self._st[fid]
            flow.input_state = self._inp[fid]
            flow.enabled = bool(self._enabled[fid])
            flow.saturated = bool(self._saturated[fid])
            flow.in_worklist = bool(self._in_worklist[fid])
            flow.in_link_queue = bool(self._in_link_queue[fid])

        state = SolverState(self.config)
        generation = getattr(self.arena_state, "session_generation", None)
        if generation is not None:
            state.session_generation = generation
        # Counters from the tables, which a later resume keeps current
        # (this solver's own copies stop at its solve).
        tables = self.arena_state
        state.pvpg = pvpg
        state.reachable = self._reachable
        state.stub_methods = self._stub_methods
        state.steps = tables.steps
        state.joins = tables.joins
        state.transfers = tables.transfers
        state.saturated_flows = tables.saturated_flows
        state.seeded_roots = list(self._seeded_roots)
        state.stub_links = [
            (flows[fid], signature) for fid, signature in self._stub_links]
        state.solve_count = tables.solve_count
        return state


__all__ = ["ARENA_SNAPSHOT_VERSION", "ArenaKernelSolver", "ArenaSolverState"]
