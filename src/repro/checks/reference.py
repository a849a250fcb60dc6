"""The reference solver: SkipFlow's rules as a naive round-robin fixpoint.

An executable specification kept out of every solve path, so that it can
judge the arena kernel instead of sharing its mistakes: it reads the same
arena columns but has no worklist, no edge-key cache, no incremental
re-link and no resume.  A visit recomputes one flow from the current
states (call targets and field links resolved afresh from the receiver's
whole state); rounds of visits repeat until one changes nothing.
:func:`fixpoint_divergences` compares fixpoints only, never counters.
See ``docs/architecture.md`` ("The reference solver").
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, List, Optional, Set

from repro.core.compare import compare_states
from repro.ir.arena import ArenaProgram, schema
from repro.ir.instructions import InvokeKind
from repro.ir.types import INT_TYPE_NAME, NULL_TYPE_NAME, MethodSignature, TypeHierarchy
from repro.ir.values import ConstKind
from repro.lattice.primitive import ANY, join_all_constants
from repro.lattice.typeset import filter_instanceof
from repro.lattice.value_state import ValueState

_STATIC = schema.INVOKE_INDEX[InvokeKind.STATIC]
_EMPTY = ValueState.empty()
_INT_ONE = ValueState.of_int(1)
_ANY = ValueState.any_primitive()
_FILTERS = (schema.K_FILTER_TYPE, schema.K_FILTER_COMPARE)
_LINKING = frozenset((schema.K_PARAMETER, schema.K_FIELD, schema.K_INVOKE,
                      schema.K_LOAD_FIELD, schema.K_STORE_FIELD))
_LISTED_FLOWS = 5  # per-flow differences a divergence report lists


def conservative_state(hierarchy: TypeHierarchy,
                       declared_type: Optional[str]) -> ValueState:
    """What a value of ``declared_type`` may hold when nothing is known:
    any instantiable subtype or ``null`` of a declared reference type,
    primitive ``Any`` otherwise."""
    if declared_type is None or declared_type in (INT_TYPE_NAME, "void"):
        return _ANY
    if declared_type in hierarchy:
        types = set(hierarchy.instantiable_subtypes(declared_type))
        types.add(NULL_TYPE_NAME)
        return ValueState.of_types(types)
    return _ANY


def declared_parameter_type(signature: MethodSignature,
                            declared_type: Optional[str],
                            index: int) -> Optional[str]:
    """The type a root seeds parameter ``index`` with (0 is ``this``)."""
    if declared_type is not None:
        return declared_type
    if not signature.is_static:
        if index == 0:
            return signature.declaring_class
        index -= 1
    if 0 <= index < len(signature.param_types):
        return signature.param_types[index]
    return None


def stub_effect(hierarchy: TypeHierarchy,
                signature: MethodSignature) -> ValueState:
    """What a linked callee without a body returns into its invoke flow."""
    if signature.returns_reference:
        return conservative_state(hierarchy, signature.return_type)
    return _ANY


def _join_all(states: List[ValueState]) -> ValueState:
    """The join of ``states``; a wide one is built at once (a fold would
    intern every intermediate state)."""
    if len(states) < 8:
        return reduce(ValueState.join, states, _EMPTY)
    return ValueState.of(set().union(*(state.types for state in states)),
                         join_all_constants(s.primitive for s in states))


def _row(ptr, val, index: int):
    """Row ``index`` of a CSR column pair."""
    return val[ptr[index]:ptr[index + 1]]


class ReferenceFixpoint:
    """One reference solve of ``program`` under ``config`` from ``roots``:
    ``reachable`` method ids, ``stubs``, ``callees`` (invoke fid -> ``(name,
    signature)`` links) and, by fid, ``states``, ``enabled``, ``saturated``."""

    def __init__(self, program: ArenaProgram, config,
                 roots: Iterable[str]) -> None:
        self.arena = arena = program.arena
        self.hierarchy = program.hierarchy
        self.config = config
        roots = list(dict.fromkeys(roots))
        count = arena.num_flows
        self.uses_in: List[List[int]] = [[] for _ in range(count)]
        for source in range(count):
            for target in _row(arena.use_ptr, arena.use_val, source):
                self.uses_in[target].append(source)
        self.param_index = {fid: index for mid in range(arena.num_methods) for index, fid
                            in enumerate(_row(arena.method_param_ptr, arena.method_param_val, mid))}
        self.root_mids = {arena.mid_of(root) for root in roots} - {None}
        self.states, self.enabled = [_EMPTY] * count, bytearray(count)
        self.saturated = bytearray(count)
        self.states[0], self.enabled[0] = _INT_ONE, 1
        for fid in arena.field_flow_ids():
            self.enabled[fid] = 1
        self.reachable = set(self.root_mids)
        #: Methods in the order a link made them reachable.
        self.found: List[int] = []
        self.stubs = {root for root in roots if arena.mid_of(root) is None}
        #: Each invoke's and load/store's links at its last visit, and the
        #: reverse views parameters and field flows read (links only grow).
        self.callees: Dict[int, list] = {}
        self.fields: Dict[int, List[int]] = {}
        self.callers: Dict[int, Set[int]] = {}
        self.writers: Dict[int, Set[int]] = {}
        self.resolved: Dict[tuple, Optional[MethodSignature]] = {}
        self.threshold = config.saturation_threshold
        #: What enabling each flow joins into its state.
        self.grants = [self._granted(fid, kind) for fid, kind in enumerate(arena.flow_kind)]
        self.reachable_origins = (
            config.saturation_policy == "allocated-type-reachable")
        self.sentinel = _EMPTY
        if self.threshold is not None and not self.reachable_origins:
            self.sentinel = self._sentinel(range(arena.num_methods), [
                signature for cls in self.hierarchy
                for signature in cls.declared_methods.values()
                if arena.mid_of(signature.qualified_name) is None])
        self._solve()

    def _sentinel(self, mids: Iterable[int],
                  stubs: Iterable[MethodSignature]) -> ValueState:
        """``mids``' allocated types, the roots' seeds and the ``stubs``'
        returns, with ``null`` and primitive ``Any``."""
        arena, hierarchy = self.arena, self.hierarchy
        origins = {NULL_TYPE_NAME}
        for mid in mids:
            origins.update(arena.allocation_sites(mid))
        declared = [signature.return_type for signature in stubs
                    if signature.returns_reference]
        for mid in self.root_mids:
            signature = arena.method_signature(mid)
            declared.extend(signature.param_types)
            if not signature.is_static:
                declared.append(signature.declaring_class)
        for name in declared:
            if name in hierarchy:
                origins.update(hierarchy.instantiable_subtypes(name))
        return ValueState.of_types(origins).with_primitive(ANY)

    def _callees(self, fid: int) -> list:
        """``(qualified name, signature or None)`` of each callee an invoke
        flow links, from its receiver's current state."""
        arena, hierarchy = self.arena, self.hierarchy
        row = arena.flow_aux1[fid]
        name = arena.string(arena.cs_method_name[row])
        if arena.cs_kind[row] == _STATIC:
            target = arena.opt_string(arena.cs_target_class[row])
            if target is None:
                return []
            signature = (hierarchy.resolve(target, name)
                         if target in hierarchy else None)
            if signature is None:
                return [(f"{target}.{name}", None)]
            return [(signature.qualified_name, signature)]
        linked = []
        for type_name in self.states[arena.flow_aux2[fid]].reference_types:
            key = (type_name, name)
            if key not in self.resolved:
                self.resolved[key] = hierarchy.resolve(type_name, name)
            if self.resolved[key] is not None:
                linked.append((self.resolved[key].qualified_name,
                               self.resolved[key]))
        return linked

    def _fields(self, fid: int) -> List[int]:
        """The field flow of each receiver type of a load or store."""
        arena = self.arena
        field_name = arena.string(arena.flow_aux1[fid])
        declarations = (
            self.hierarchy.lookup_field(type_name, field_name)
            for type_name in self.states[arena.flow_aux2[fid]].reference_types)
        return [arena.field_fid(declaration.qualified_name)
                for declaration in declarations if declaration is not None]

    def _granted(self, fid: int, kind: int) -> ValueState:
        """What enabling a flow joins into its state."""
        arena = self.arena
        if kind == schema.K_SOURCE:
            row = arena.flow_aux1[fid]
            const = schema.CONST_KINDS[arena.const_kind[row]]
            if const is ConstKind.INT and self.config.track_primitives:
                return ValueState.of_int(arena.const_int[row])
            if const in (ConstKind.INT, ConstKind.ANY):
                return _ANY
            if const is ConstKind.NEW:
                return ValueState.of_type(arena.string(arena.const_type[row]))
            return ValueState.null()
        if kind == schema.K_PHI_PRED:
            return _INT_ONE
        if kind == schema.K_RETURN and arena.flow_aux1[fid]:
            return _ANY
        return _EMPTY

    def _transfer(self, fid: int, kind: int, inp: ValueState) -> ValueState:
        arena, config = self.arena, self.config
        if kind == schema.K_FILTER_TYPE and config.filter_type_checks:
            return filter_instanceof(inp, self.hierarchy,
                                     arena.string(arena.flow_aux1[fid]),
                                     bool(arena.flow_aux2[fid]))
        if kind == schema.K_FILTER_COMPARE and config.filter_comparisons:
            observed = arena.flow_aux2[fid]
            return compare_states(
                schema.COMPARE_OPS[arena.flow_aux1[fid]], inp,
                self.states[observed] if observed >= 0 else _EMPTY)
        return inp

    def _visit(self, fid: int) -> bool:
        """Recompute one live flow from the current states; ``True`` when
        its enabled bit, links, state or saturation bit changed."""
        arena, states, enabled = self.arena, self.states, self.enabled
        kind = arena.flow_kind[fid]
        changed = False
        if not enabled[fid] and (not self.config.use_predicates or any(
                enabled[p] and not states[p].is_empty
                for p in _row(arena.pin_ptr, arena.pin_val, fid))):
            enabled[fid] = 1
            changed = True
        sources = [source for source in self.uses_in[fid] if enabled[source]]
        injected = _EMPTY
        if kind in _LINKING:
            injected, relinked = self._link(fid, kind, sources)
            changed = relinked or changed
        state = _join_all([states[source] for source in sources]).join(injected)
        if kind in _FILTERS:
            state = self._transfer(fid, kind, state)
        if enabled[fid]:
            state = state.join(self.grants[fid])
        saturated = self.saturated
        if self.threshold is not None and (
                saturated[fid] or len(state.reference_types) > self.threshold):
            changed = changed or not saturated[fid]
            saturated[fid] = 1
            state = state.join(self.sentinel)
        # Joins return their left operand when they add nothing.
        state = states[fid].join(state)
        if state is not states[fid]:
            states[fid] = state
            changed = True
        return changed

    def _link(self, fid: int, kind: int, sources: List[int]):
        """Add a flow's inputs through links (calls, field accesses) to
        ``sources``; return what it injects and whether its links changed."""
        arena, hierarchy = self.arena, self.hierarchy
        enabled, mid = self.enabled, arena.flow_method[fid]
        injected, changed = _EMPTY, False
        if kind == schema.K_PARAMETER:
            index = self.param_index[fid]
            for caller in self.callers.get(mid, ()):
                arguments = _row(arena.inv_args_ptr, arena.inv_args_val,
                                 arena.flow_aux1[caller])
                if enabled[caller] and index < len(arguments) \
                        and enabled[arguments[index]]:
                    sources.append(arguments[index])
            if mid in self.root_mids:
                injected = conservative_state(hierarchy, declared_parameter_type(
                    arena.method_signature(mid),
                    arena.opt_string(arena.flow_aux2[fid]),
                    arena.flow_aux1[fid]))
        elif kind == schema.K_FIELD:  # its ``writers`` are enabled stores
            sources.extend(self.writers.get(fid, ()))
        elif kind == schema.K_INVOKE and enabled[fid]:
            linked = self._callees(fid)
            if set(linked) != set(self.callees.get(fid, ())):
                self.callees[fid] = linked
                changed = True
            for name, signature in linked:
                callee = arena.mid_of(name)
                if callee is None:
                    self.stubs.add(name)
                    injected = injected.join(
                        _ANY if signature is None else stub_effect(hierarchy, signature))
                    continue
                if callee not in self.reachable:
                    self.reachable.add(callee)
                    self.found.append(callee)
                self.callers.setdefault(callee, set()).add(fid)
                sources.extend(ret for ret in _row(
                    arena.method_ret_ptr, arena.method_ret_val, callee) if enabled[ret])
        elif enabled[fid] and kind != schema.K_INVOKE:
            fields = self._fields(fid)
            if set(fields) != set(self.fields.get(fid, ())):
                self.fields[fid] = fields
                changed = True
            if kind == schema.K_LOAD_FIELD:
                sources.extend(fields)
            for field in fields if kind == schema.K_STORE_FIELD else ():
                self.writers.setdefault(field, set()).add(fid)
        return injected, changed

    def _pass(self, mid: int) -> bool:
        """Visit the field flows a method links, then its flows, once."""
        flows = range(self.arena.method_flow_lo[mid],
                      self.arena.method_flow_hi[mid])
        touched = sorted({field for fid in flows
                          for field in self.fields.get(fid, ())})
        return any([self._visit(fid) for fid in [*touched, *flows]])

    def _settle(self, mid: int) -> bool:
        """Pass over ``mid`` until a pass changes nothing (``True`` if one
        did), settling each method a pass links first before the next pass
        over its caller, which then sees its returns."""
        changed = False
        stack, settling = [mid], {mid}
        while stack:
            mark = len(self.found)
            if self._pass(stack[-1]):
                changed = True
            elif len(self.found) == mark:
                stack.pop()
                continue
            fresh = [callee for callee in self.found[mark:]
                     if callee not in settling]
            settling.update(fresh)
            stack.extend(reversed(fresh))
        return changed

    def _solve(self) -> None:
        """Rounds until one changes nothing: the field flows, then every
        reachable method settled, in id order and in reverse by turns
        (arguments flow down a call graph, returns up).  The order only
        decides how many rounds it takes, not the fixpoint."""
        arena = self.arena
        order = range(arena.num_methods)
        while True:
            if self.threshold is not None and self.reachable_origins:
                self.sentinel = self.sentinel.join(self._sentinel(
                    self.reachable, [
                        signature for linked in self.callees.values()
                        for name, signature in linked
                        if signature is not None
                        and arena.mid_of(name) is None]))
            changed = any([self._visit(fid)
                           for fid in arena.field_flow_ids()])
            changed = any([self._settle(mid) for mid in order
                           if mid in self.reachable]) or changed
            if not changed:
                return
            order = order[::-1]


def fixpoint_divergences(program: ArenaProgram, state,
                         roots: Optional[Iterable[str]] = None) -> List[str]:
    """How an arena kernel ``state`` over ``program`` differs from the
    reference's fixpoint of the same program, config and ``roots``: empty
    when reachable and stub methods, every invoke flow's callees and every
    flow's value state, enabled and saturation bits agree.  At most
    ``_LISTED_FLOWS`` per-flow differences are listed."""
    expected = ReferenceFixpoint(program, state.config, program.entry_points
                                 if roots is None else roots)
    arena = program.arena
    reachable = {arena.qualified_name(mid) for mid in expected.reachable}
    found = [f"{what} differ: kernel-only {sorted(got - want)[:3]}, "
             f"reference-only {sorted(want - got)[:3]}"
             for what, got, want in (
                 ("reachable methods", set(state.reachable), reachable),
                 ("stub methods", set(state.stub_methods), expected.stubs))
             if got != want]
    flows = []
    for fid in range(arena.num_flows):
        parts = [f"{what} {got!r} vs {want!r}" for what, got, want in (
            ("callees", set(state.linked_callees.get(fid, ())),
             {name for name, _ in expected.callees.get(fid, ())}),
            ("state", state.st[fid], expected.states[fid]),
            ("enabled", state.enabled[fid], expected.enabled[fid]),
            ("saturated", state.saturated[fid], expected.saturated[fid]))
            if got != want]
        if parts:
            mid = arena.flow_method[fid]
            flows.append(
                f"flow {fid} ({schema.FLOW_KINDS[arena.flow_kind[fid]]} "
                f"{arena.string(arena.flow_label[fid])!r} in "
                f"{arena.qualified_name(mid) if mid >= 0 else '<global>'}): "
                + "; ".join(parts))
    if flows:
        found.append(f"{len(flows)} flows differ")
        found.extend(flows[:_LISTED_FLOWS])
    return found


__all__ = ["ReferenceFixpoint", "conservative_state", "declared_parameter_type",
           "fixpoint_divergences", "stub_effect"]
