"""Saturation policies: what "megamorphic" means and which top a flow jumps to.

The saturation cutoff collapses a flow whose reference-type set grows past a
threshold, GraalVM-style: the flow's state jumps to a *sentinel* — a top
element for everything that could still arrive — and all further joins into
the flow are skipped (they would be no-ops against top by definition).  A
saturation policy decides two things: when a freshly joined state counts as
over the threshold, and which sentinel the flow collapses to.

Both decisions preserve the solver's monotone-termination argument (see
:mod:`repro.core.kernel`): the sentinel is always joined *over* the state
that triggered the collapse, so saturation is a move up the lattice, and
skipping joins into a flow already at its top loses nothing.

Built-ins:

``off``
    No cutoff; the paper's exact semantics.  Represented as ``threshold is
    None`` — :func:`make_saturation_policy` returns ``None`` so the solver's
    hot path pays nothing when the cutoff is off.
``closed-world``
    The original sentinel: every instantiable type of the closed world,
    ``null``, and primitive ``Any``.  Trivially sound, maximally coarse —
    an ``instanceof Rare`` guard over a saturated flow can never be
    discharged again, because the closed-world top contains every declared
    concrete type whether it is ever allocated or not.
``allocated-type``
    An RTA-style top: saturated flows collapse to the set of types that can
    ever *originate* in a value state — types with an allocation site
    anywhere in the closed world, plus the instantiable subtypes of the
    root methods' reference parameter types (conservative root seeding can
    inject those even without an allocation).  Declared-but-never-allocated
    types are excluded, so an ``instanceof Rare`` guard over a saturated
    flow is still discharged when ``Rare`` is never instantiated — the
    precision loss the closed-world sentinel cannot avoid.  Soundness rests
    on the closed-world origin argument: reference types enter value
    states only through ``new`` sources, conservative root seeds, and the
    stub effects of declared-but-bodyless callees — and
    :func:`allocated_types` unions all three origin sets, computed
    statically over the whole program text, so the sentinel dominates
    every arrival independent of reachability and of the schedule, and
    only grows under monotone program deltas.  This policy needs the
    program (and the solve's roots).
``allocated-type-reachable``
    The reachability-refined variant of ``allocated-type``: allocation
    sites are counted only in methods the solve has proved *reachable*
    (plus the root seeds and the stub effects of callees the solve has
    actually linked), so dormant code — plugin self-registration, dead
    feature modules — no longer widens the sentinel.  The origin set now
    depends on reachability, which grows during the solve, so the policy
    cooperates with the solver's refinement loop: after every inner
    fixpoint the solver calls :meth:`ReachableAllocatedSaturation.
    refresh_origins` with the current reachable set, and if the origins
    grew it re-collapses every saturated flow to the widened sentinel
    (the same machinery warm resumption uses) and iterates again.  The
    loop terminates because origins only grow and are bounded by the
    closed world's type count; the result is schedule-independent and
    warm/cold-identical because the *final* sentinel is a function of the
    final reachable set alone — see ``docs/architecture.md`` for the full
    soundness argument.

The set is closed: :func:`make_saturation_policy` builds one of these four
by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable, Optional, Tuple

from repro.core.flows import Flow
from repro.ir.instructions import Assign
from repro.ir.types import NULL_TYPE_NAME, OBJECT_TYPE_NAME, TypeHierarchy
from repro.ir.values import ConstKind
from repro.lattice.primitive import ANY
from repro.lattice.value_state import ValueState

if TYPE_CHECKING:
    from repro.ir.program import Program
    from repro.ir.types import MethodSignature

#: The policy name meaning "no cutoff" (threshold ``None``, exact semantics).
OFF = "off"


class ClosedWorldSaturation:
    """The original cutoff: collapse to the closed world's any-type sentinel.

    The base of every built-in policy; the solver consults it after every
    state-growing transfer.  ``collapse`` returns the sentinel state the
    flow should jump to, or ``None`` when the freshly joined ``new_state``
    is still below the threshold.  ``sentinel_for`` exposes the flow's top
    directly; the solver uses it when *resuming* a solve to re-collapse
    already-saturated flows against the current program's (possibly wider)
    sentinel.  Subclasses override only ``_sentinel``.  An instance belongs
    to exactly one solve (it memoizes sentinels against that solve's type
    hierarchy).
    """

    name = "closed-world"

    def __init__(self, hierarchy: TypeHierarchy, threshold: int) -> None:
        self.hierarchy = hierarchy
        self.threshold = threshold
        self._top: Optional[ValueState] = None

    def _closed_world_top(self) -> ValueState:
        top = self._top
        if top is None:
            types = set(self.hierarchy.instantiable_subtypes(OBJECT_TYPE_NAME))
            types.add(NULL_TYPE_NAME)
            top = ValueState.of_types(types).with_primitive(ANY)
            self._top = top
        return top

    def _sentinel(self, flow: Flow) -> ValueState:
        return self._closed_world_top()

    def sentinel_for(self, flow: Flow) -> ValueState:
        """The top this flow would collapse to (resume-time re-collapse)."""
        return self._sentinel(flow)

    def collapse(self, flow: Flow, new_state: ValueState) -> Optional[ValueState]:
        if len(new_state.reference_types) <= self.threshold:
            return None
        # Joining over the triggering state keeps the collapse a move *up*
        # the lattice whatever sentinel a subclass supplies.
        return new_state.join(self._sentinel(flow))


class AllocatedTypeSaturation(ClosedWorldSaturation):
    """RTA-style top: only types that can ever originate in a value state."""

    name = "allocated-type"

    def __init__(self, hierarchy: TypeHierarchy, threshold: int,
                 allocated: FrozenSet[str]) -> None:
        super().__init__(hierarchy, threshold)
        self._allocated = allocated
        self._allocated_top: Optional[ValueState] = None

    def _sentinel(self, flow: Flow) -> ValueState:
        top = self._allocated_top
        if top is None:
            types = set(self._allocated)
            types.add(NULL_TYPE_NAME)
            top = ValueState.of_types(types).with_primitive(ANY)
            self._allocated_top = top
        return top


class ReachableAllocatedSaturation(ClosedWorldSaturation):
    """RTA-style top over *reachable* allocation sites only.

    Unlike :class:`AllocatedTypeSaturation`, the origin set is not a
    whole-text constant: it is recomputed from the solve's current
    reachable set by :meth:`refresh_origins`, which the solver calls
    between inner fixpoints (and at resume time, where the restored
    state's reachable set seeds the origins before any re-collapse).
    ``collapse`` and ``sentinel_for`` always answer against the origins of
    the *latest* refresh; the solver's refinement loop guarantees the
    final answer was computed against the final reachable set.
    """

    name = "allocated-type-reachable"

    def __init__(self, hierarchy: TypeHierarchy, threshold: int,
                 program: "Program") -> None:
        super().__init__(hierarchy, threshold)
        self._program = program
        self._origins: FrozenSet[str] = frozenset()
        self._origin_top: Optional[ValueState] = None

    @property
    def origins(self) -> FrozenSet[str]:
        """The origin types of the latest refresh (for tests/diagnostics)."""
        return self._origins

    def refresh_origins(self, reachable: FrozenSet[str],
                        stub_signatures: Tuple["MethodSignature", ...],
                        roots: Tuple[str, ...]) -> bool:
        """Recompute origins from the current reachable set.

        Returns ``True`` when the origin set grew (the solver must then
        re-collapse saturated flows and re-run to the inner fixpoint).
        Origins never shrink within one policy instance, even if called
        with a smaller reachable set, so sentinels only move up the
        lattice — the property the monotone-termination argument needs.
        """
        origins = reachable_allocated_types(
            self._program, reachable=reachable,
            stub_signatures=stub_signatures, roots=roots)
        if origins <= self._origins:
            return False
        self._origins = self._origins | origins
        self._origin_top = None
        return True

    def _sentinel(self, flow: Flow) -> ValueState:
        top = self._origin_top
        if top is None:
            types = set(self._origins)
            types.add(NULL_TYPE_NAME)
            top = ValueState.of_types(types).with_primitive(ANY)
            self._origin_top = top
        return top


def reachable_allocated_types(
        program: "Program", *, reachable: Iterable[str],
        stub_signatures: Iterable["MethodSignature"] = (),
        roots: Tuple[str, ...] = ()) -> FrozenSet[str]:
    """Types that can originate in a value state of the *reachable* program.

    The union of three origin sets:

    (a) types with a ``new`` site in a method of ``reachable``;
    (b) the instantiable subtypes of the root methods' declared reference
        parameter types, which conservative root seeding injects without an
        allocation (mirrors ``SkipFlowSolver._conservative_state``; roots
        default to the program's entry points, and are seeded
        unconditionally, reachable or not);
    (c) the instantiable subtypes of the reference *return* types of the
        bodyless callees in ``stub_signatures``: the solver's stub effects
        inject exactly that conservative state when such a callee is
        linked, so the sentinel must dominate it too.
    """
    allocated = set()
    hierarchy = program.hierarchy
    # Duck-typed fast path: arena-attached programs precompute their
    # allocation sites per method, so no body is ever decoded here.
    site_index = getattr(program, "allocation_site_index", None)
    if site_index is not None:
        for qualified_name in reachable:
            allocated.update(site_index.get(qualified_name, ()))
    else:
        for qualified_name in reachable:
            method = program.methods.get(qualified_name)
            if method is None:
                continue
            for block in method.blocks:
                for statement in block.statements:
                    if (isinstance(statement, Assign)
                            and statement.expr.kind is ConstKind.NEW):
                        allocated.add(statement.expr.type_name)
    for root in roots or tuple(program.entry_points):
        method = program.methods.get(root)
        if method is None:
            continue
        signature = method.signature
        declared = list(signature.param_types)
        if not signature.is_static:
            declared.append(signature.declaring_class)
        for type_name in declared:
            if type_name in hierarchy:
                allocated.update(hierarchy.instantiable_subtypes(type_name))
    for signature in stub_signatures:
        if (signature.returns_reference
                and signature.return_type in hierarchy):
            allocated.update(
                hierarchy.instantiable_subtypes(signature.return_type))
    return frozenset(allocated)


def allocated_types(program: "Program",
                    roots: Tuple[str, ...] = ()) -> FrozenSet[str]:
    """Every type that can originate in a reference state of ``program``.

    :func:`reachable_allocated_types` over the whole program text — every
    method counts as reachable and every declared-but-bodyless method
    (native/opaque stub) as linked — so the set is stable under any
    schedule and only grows under monotone deltas.
    """
    methods = program.methods
    stubs = [signature
             for cls in program.hierarchy
             for signature in cls.declared_methods.values()
             if signature.qualified_name not in methods]
    return reachable_allocated_types(program, reachable=methods,
                                     stub_signatures=stubs, roots=roots)


# ---------------------------------------------------------------------- #
# The built-in policies, by name
# ---------------------------------------------------------------------- #
#: Every cutoff name, ``off`` (the exact default) first.
_SATURATION_POLICIES = (OFF, "allocated-type", "allocated-type-reachable",
                       "closed-world")


def make_saturation_policy(name: str, hierarchy: TypeHierarchy,
                           threshold: Optional[int],
                           *, program: Optional["Program"] = None,
                           roots: Tuple[str, ...] = ()
                           ) -> Optional[ClosedWorldSaturation]:
    """A fresh cutoff policy for one solve, or ``None`` for ``off``.

    Returning ``None`` (rather than a never-fires object) lets the solver
    skip the whole saturation branch on its hot path when the cutoff is
    disabled — which is how the default stays bit-identical to the seed.
    The allocated-type policies read ``program`` (and ``roots``), so they
    need one.
    """
    key = name.strip().lower()
    if key == OFF or threshold is None:
        return None
    if key not in _SATURATION_POLICIES:
        raise ValueError(
            f"unknown saturation policy {name!r}; available: "
            f"{', '.join(_SATURATION_POLICIES)}")
    if key == "closed-world":
        return ClosedWorldSaturation(hierarchy, threshold)
    if program is None:
        raise ValueError(f"the {key!r} saturation policy needs the program")
    if key == "allocated-type":
        return AllocatedTypeSaturation(hierarchy, threshold,
                                       allocated_types(program, roots))
    return ReachableAllocatedSaturation(hierarchy, threshold, program)


def available_saturation_policies() -> Tuple[str, ...]:
    """Cutoff names, ``off`` (the exact default) first."""
    return _SATURATION_POLICIES
