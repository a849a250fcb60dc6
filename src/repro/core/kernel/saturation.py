"""Saturation policies: what "megamorphic" means and which top a flow jumps to.

The saturation cutoff collapses a flow whose reference-type set grows past a
threshold, GraalVM-style: the flow's state jumps to a *sentinel* — a top
element for everything that could still arrive — and all further joins into
the flow are skipped (they would be no-ops against top by definition).  A
flow counts as over the threshold when its freshly joined state holds more
than ``threshold`` reference types; a saturation policy decides which
sentinel it collapses to.

The collapse preserves the solver's monotone-termination argument (see
:mod:`repro.core.kernel`): the sentinel is always joined *over* the state
that triggered the collapse, so saturation is a move up the lattice, and
skipping joins into a flow already at its top loses nothing.

Built-ins:

``off``
    No cutoff; the paper's exact semantics.  Represented as ``threshold is
    None`` — :func:`make_saturation_policy` returns ``None`` so the solver's
    hot path pays nothing when the cutoff is off.
``allocated-type``
    The sentinel a bare threshold engages.  An RTA-style top: saturated
    flows collapse to the set of types that can ever *originate* in a value
    state — types with an allocation site anywhere in the closed world,
    plus the instantiable subtypes of the root methods' reference parameter
    types (conservative root seeding can inject those even without an
    allocation).  Declared-but-never-allocated types are excluded, so an
    ``instanceof Rare`` guard over a saturated flow is still discharged
    when ``Rare`` is never instantiated.  Soundness rests on the
    closed-world origin argument: reference types enter value states only
    through ``new`` sources, conservative root seeds, and the stub effects
    of declared-but-bodyless callees — and :func:`allocated_types` unions
    all three origin sets, computed statically over the whole program
    text, so the sentinel dominates every arrival independent of
    reachability and of the schedule, and only grows under monotone
    program deltas.
``allocated-type-reachable``
    The reachability-refined variant of ``allocated-type``: allocation
    sites are counted only in methods the solve has proved *reachable*
    (plus the root seeds and the stub effects of callees the solve has
    actually linked), so dormant code — plugin self-registration, dead
    feature modules — no longer widens the sentinel.  The origin set now
    depends on reachability, which grows during the solve, so the policy
    cooperates with the solver's refinement loop: after every inner
    fixpoint the solver calls :meth:`AllocatedTypeSaturation.
    refresh_origins` with the current reachable set, and if the origins
    grew it re-collapses every saturated flow to the widened sentinel
    (the same machinery warm resumption uses) and iterates again.  The
    loop terminates because origins only grow and are bounded by the
    closed world's type count; the result is schedule-independent and
    warm/cold-identical because the *final* sentinel is a function of the
    final reachable set alone — see ``docs/architecture.md`` for the full
    soundness argument.

Both cutoffs are one class, :class:`AllocatedTypeSaturation`, whose origin
set is either fixed at construction or refreshed from the reachable set.
A closed-world top (every declared concrete type) used to be the
bare-threshold sentinel; it could never discharge a rare guard again and
lost to ``allocated-type`` on reachable methods, steps and wall time, so
it was deleted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable, Optional, Tuple

from repro.ir.arena import ArenaProgram
from repro.ir.instructions import Assign
from repro.ir.types import NULL_TYPE_NAME
from repro.ir.values import ConstKind
from repro.lattice.primitive import ANY
from repro.lattice.value_state import ValueState

if TYPE_CHECKING:
    from repro.ir.program import Program
    from repro.ir.types import MethodSignature

#: The policy name meaning "no cutoff" (threshold ``None``, exact semantics).
OFF = "off"
#: The sentinel a bare threshold engages.
ALLOCATED_TYPE = "allocated-type"
#: The reachability-refined variant of :data:`ALLOCATED_TYPE`.
ALLOCATED_TYPE_REACHABLE = "allocated-type-reachable"


class AllocatedTypeSaturation:
    """RTA-style cutoff: collapse to the types that can originate in a state.

    The solver consults it after every state-growing transfer: a freshly
    joined state with more than ``threshold`` reference types collapses to
    ``new_state.join(policy.sentinel)``.  ``sentinel`` is flow-independent;
    the solver also re-collapses already-saturated flows against it when a
    resume or a refinement pass may have widened it.

    With ``reachable=False`` (``allocated-type``) the origin set is fixed
    at construction from the whole program text and
    :meth:`refresh_origins` is a no-op.  With ``reachable=True``
    (``allocated-type-reachable``) it starts empty and is recomputed from
    the solve's current reachable set by :meth:`refresh_origins`, which
    the solver calls between inner fixpoints (and at resume time, where
    the restored state's reachable set seeds the origins before any
    re-collapse).  An instance belongs to exactly one solve.
    """

    def __init__(self, threshold: int, program: "Program",
                 roots: Tuple[str, ...] = (), *,
                 reachable: bool = False) -> None:
        self.threshold = threshold
        self.reachable = reachable
        self._program = program
        self._origins: FrozenSet[str] = (
            frozenset() if reachable else allocated_types(program, roots))
        self.sentinel = _top_of(self._origins)

    @property
    def origins(self) -> FrozenSet[str]:
        """The origin types of the sentinel (for tests/diagnostics)."""
        return self._origins

    def refresh_origins(self, reachable: FrozenSet[str],
                        stub_signatures: Tuple["MethodSignature", ...],
                        roots: Tuple[str, ...]) -> bool:
        """Recompute origins from the current reachable set.

        Returns ``True`` when the origin set grew (the solver must then
        re-collapse saturated flows and re-run to the inner fixpoint);
        always ``False`` for the whole-text origins of ``allocated-type``.
        Origins never shrink within one policy instance, even if called
        with a smaller reachable set, so sentinels only move up the
        lattice — the property the monotone-termination argument needs.
        """
        if not self.reachable:
            return False
        origins = reachable_allocated_types(
            self._program, reachable=reachable,
            stub_signatures=stub_signatures, roots=roots)
        if origins <= self._origins:
            return False
        self._origins = self._origins | origins
        self.sentinel = _top_of(self._origins)
        return True


def _top_of(origins: FrozenSet[str]) -> ValueState:
    """The sentinel over ``origins``: those types, ``null`` and primitive ``Any``."""
    return ValueState.of_types(origins | {NULL_TYPE_NAME}).with_primitive(ANY)


def reachable_allocated_types(
        program: "Program", *, reachable: Iterable[str],
        stub_signatures: Iterable["MethodSignature"] = (),
        roots: Tuple[str, ...] = ()) -> FrozenSet[str]:
    """Types that can originate in a value state of the *reachable* program.

    The union of three origin sets:

    (a) types with a ``new`` site in a method of ``reachable``;
    (b) the instantiable subtypes of the root methods' declared reference
        parameter types, which conservative root seeding injects without an
        allocation (the conservative root seed's types; roots
        default to the program's entry points, and are seeded
        unconditionally, reachable or not);
    (c) the instantiable subtypes of the reference *return* types of the
        bodyless callees in ``stub_signatures``: the solver's stub effects
        inject exactly that conservative state when such a callee is
        linked, so the sentinel must dominate it too.
    """
    allocated = set()
    hierarchy = program.hierarchy
    # An arena program lists each method's allocation sites in its columns,
    # so no body is decoded here; a broken index raises rather than falling
    # back to the bodies.
    if isinstance(program, ArenaProgram):
        site_index = program.allocation_site_index
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
_SATURATION_POLICIES = (OFF, ALLOCATED_TYPE, ALLOCATED_TYPE_REACHABLE)


def make_saturation_policy(name: str, threshold: Optional[int],
                           program: "Program", roots: Tuple[str, ...] = ()
                           ) -> Optional[AllocatedTypeSaturation]:
    """A fresh cutoff policy for one solve, or ``None`` for ``off``.

    Returning ``None`` (rather than a never-fires object) lets the solver
    skip the whole saturation branch on its hot path when the cutoff is
    disabled — which is how the default stays bit-identical to the seed.
    """
    key = name.strip().lower()
    if key == OFF or threshold is None:
        return None
    if key not in _SATURATION_POLICIES:
        raise ValueError(
            f"unknown saturation policy {name!r}; available: "
            f"{', '.join(_SATURATION_POLICIES)}")
    return AllocatedTypeSaturation(
        threshold, program, roots,
        reachable=key == ALLOCATED_TYPE_REACHABLE)


def available_saturation_policies() -> Tuple[str, ...]:
    """Cutoff names, ``off`` (the exact default) first."""
    return _SATURATION_POLICIES
