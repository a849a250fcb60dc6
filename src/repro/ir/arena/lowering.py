"""``lower(program)`` and ``serialize``: a built program as arena columns.

Freezing is two steps.  :func:`lower` lowers the IR of *every* method
straight into the struct-of-arrays schema of :mod:`repro.ir.arena.layout`
(lowering all of them up front, reachable or not, pays off once two
configs share it), as integer columns held in memory beside the live method bodies and
hierarchy.  :func:`serialize` adds what only a stored buffer needs — the
pickled method bodies and the program fingerprint — and writes the one
buffer.  ``freeze(program)`` is ``serialize(lower(program))``; the program
store, the daemon's spill and the fuzz oracle call it.  An image build
needs no buffer: :func:`lowered_program` hands the analysis a read-only
:class:`~repro.ir.arena.program.ArenaProgram` over the lowering, memoized
per program revision, so a program built under two configs is lowered
once and solved twice on the arena kernel.

Each method's PVPG is built by one traversal, the PVPG builder of
Appendix B.4 (:class:`_PVPGBuilder`), which appends every flow and edge
to the arena rows itself, so no object flow, object graph or flow-id map
exists:

* every flow gets a dense integer id (*fid*): fid 0 is ``pred_on``, fids
  ``1..NF`` are the program's declared fields in declaration order, and
  each method owns the contiguous fid range of its flows in creation
  order — so "activate a method" becomes "enable an fid range";
* build-time edges (uses / observers / predicate targets / incoming
  predicates) become CSR ranges over fids: the builder appends each edge
  as a (source, target) pair, once, and a stable sort by row keeps each
  row in insertion order.  Edges
  created *during* a solve (field linking, call linking, ``pred_on``
  fan-out to activated methods) are intentionally absent: the kernel adds
  them to dynamic side tables;
* per-kind flow payloads (constants, call sites, compared operands, ...)
  become integer columns over small auxiliary tables;
* on serialization, method bodies are pickled *individually* so an
  attached program can thaw one method without touching the rest — and the
  arena kernel never thaws any;
* the serialized buffer is stamped with the pickled
  :class:`~repro.ir.delta.ProgramFingerprint` of the source program, so
  attach-side consumers validate against exactly what was frozen.

Strings are interned in one table in a fixed order (type tables, method
table, entry points, then flows in fid order), and sections are written in
a fixed order, so the buffer is a pure function of the program, and the
columns of a lowering equal those of an attached freeze of it.

The same traversal lowers a *segment*: the classes, fields, methods and
entry points one monotone delta adds to an attached program, with every
id continuing its base's count (:class:`ExtendedArena`, built by
:meth:`ArenaProgram.extend <repro.ir.arena.program.ArenaProgram.extend>`).
Base ids never move, so the arena kernel's tables over the base stay
valid over the extension.

``filtering_enabled`` of filter flows is *not* encoded: it is a property
of the analysis config, reapplied when flows are inflated, which keeps the
frozen structure config-independent (one arena serves every config).
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, List, Optional, Set, Tuple

from repro.core.pvpg import BranchKind
from repro.core.pvpg_builder import PVPGBuildError
from repro.ir.arena import schema
from repro.ir.arena.layout import BufferWriter
from repro.ir.arena.program import ArenaProgram, ProgramArena
from repro.ir.blocks import BasicBlock
from repro.ir.cfg import reverse_postorder
from repro.ir.delta import ProgramFingerprint, class_shape, fingerprint_of
from repro.ir.instructions import (
    Assign,
    CompareOp,
    Condition,
    If,
    InstanceOfCondition,
    Invoke,
    Jump,
    LoadField,
    Merge,
    Return,
    Start,
    StoreField,
    flip_compare_op,
    invert_compare_op,
)
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.types import ClassType, FieldDecl, TypeHierarchy
from repro.ir.values import ConstantExpr, ConstKind

_NONE = schema.NONE_ID


class _Strings:
    """Interning string table: ids in first-intern order, from ``first``.

    A segment's table starts after its base's strings; it does not look
    the base's strings up, so a text may have two ids (the kernel compares
    strings by text, never by id).
    """

    def __init__(self, first: int = 0) -> None:
        self._ids: Dict[str, int] = {}
        self.texts: List[str] = []
        self._first = first

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = self._ids[text] = self._first + len(self.texts)
            self.texts.append(text)
        return sid

    def opt(self, text: Optional[str]) -> int:
        return _NONE if text is None else self.intern(text)


class _Rows:
    """A CSR filled one row at a time: ``ptr`` + ``val`` lists."""

    __slots__ = ("ptr", "val")

    def __init__(self) -> None:
        self.ptr: List[int] = [0]
        self.val: List[int] = []

    def end_row(self) -> None:
        self.ptr.append(len(self.val))

    def add_row(self, row: List[int]) -> None:
        self.val.extend(row)
        self.ptr.append(len(self.val))

    def store(self, columns: "_Columns", ptr_name: str, val_name: str) -> None:
        columns[ptr_name] = self.ptr
        columns[val_name] = self.val


#: Integer columns by section name, in section order (plain lists: the
#: kernel indexes them without boxing, and serialize packs them).
_Columns = Dict[str, List[int]]


def _store_pairs(columns: _Columns, ptr_name: str, val_name: str,
                 pairs: List[int], num_rows: int, first_row: int = 0) -> None:
    """Store flat ``(row, value, row, value, ...)`` pairs as a CSR.

    Rows are numbered from ``first_row`` (a segment's first fid).
    ``sorted`` is stable, so every row keeps its values' insertion order.
    """
    rows, vals = pairs[0::2], pairs[1::2]
    if first_row:
        rows = [row - first_row for row in rows]
    counts = [0] * (num_rows + 1)
    for row in rows:
        counts[row + 1] += 1
    order = sorted(range(len(rows)), key=rows.__getitem__)
    columns[ptr_name] = list(accumulate(counts))
    columns[val_name] = list(map(vals.__getitem__, order))


#: Columns of one flow row, in the order of :attr:`_PVPGBuilder.flows`.
_FLOW_COLUMNS = ("flow_kind", "flow_label", "flow_method", "flow_aux1", "flow_aux2")

_TYPE_CHECK = schema.BRANCH_INDEX[BranchKind.TYPE_CHECK]
_NULL_CHECK = schema.BRANCH_INDEX[BranchKind.NULL_CHECK]
_PRIMITIVE_CHECK = schema.BRANCH_INDEX[BranchKind.PRIMITIVE_CHECK]


class _BlockState:
    """Traversal state of one block: ``m``, the flow now standing for each
    SSA name, and ``pred``, the latest predicate flow."""

    __slots__ = ("m", "pred", "merge")

    def __init__(self) -> None:
        self.m: Dict[str, int] = {}
        self.pred: Optional[int] = None
        #: The block's ``merge`` begin, if it has one.
        self.merge: Optional[Merge] = None


class _PVPGBuilder:
    """Builds each method's PVPG (Appendix B.4) straight into arena rows.

    One sequential pass per method: its blocks in reverse postorder, each
    block's instructions top to bottom.  Per block it keeps ``m`` and
    ``pred`` (:class:`_BlockState`): ``pred`` is ``pred_on`` at the start
    of the entry block, a fresh ``phi_pred`` flow at every merge, the
    invoke flow after every call, and a condition's filter flows inside
    the branches of an ``if``.

    Loops rely on the explicit phis of merge blocks (the frontend and the
    IR builder always emit them).  For hand-written IR without them, the
    collision rule of the paper's ``propagate`` creates phi flows lazily,
    which is only sound for acyclic control flow.

    A flow is an fid, handed out in creation order after the ``pred_on``
    and field rows (:meth:`global_flow`), and a row of :attr:`flows`.
    Every flow but a ``phi_pred`` gets the predicate edge of the flow
    guarding it; a ``phi_pred`` gets one from the end of each block that
    jumps to its merge.  Only edges into phis and phi_preds can repeat, so
    only they are deduplicated.  Label strings are interned once per
    distinct name, in the order a per-flow intern would meet them, so the
    string table is the same as interning every label.
    """

    pred_on = 0

    def __init__(self, strings: _Strings, base: "_Offsets") -> None:
        self._intern = strings.intern
        self._opt = strings.opt
        #: The fid the next flow gets.
        self.next_fid = base.flows
        self._method_id = base.methods - 1
        self._first_const = base.consts
        self._first_call_site = base.call_sites
        #: One ``_FLOW_COLUMNS`` row per flow, flattened.
        self.flows: List[int] = []
        self.flow_lo: List[int] = []
        self.flow_hi: List[int] = []
        # Edges as flat (source, target) pairs; ``predicates`` holds
        # (target, source) for the incoming-predicate CSR, pred_on included,
        # while pred_on's own fan-out goes to method_pred, not pred_targets.
        self.uses: List[int] = []
        self.observers: List[int] = []
        self.pred_targets: List[int] = []
        self.predicates: List[int] = []
        self.method_pred = _Rows()
        self.method_param = _Rows()
        self.method_ret = _Rows()
        self.method_inv = _Rows()
        self.branch_cols: Dict[str, List[int]] = {
            name: [] for name in ("br_kind", "br_then", "br_else", "br_block")}
        self.const_kind: List[int] = []
        self.const_int: List[int] = []
        self.const_type: List[int] = []
        self.cs_cols: Dict[str, List[int]] = {name: [] for name in (
            "cs_kind", "cs_method_name", "cs_target_class",
            "cs_result_name", "cs_result_type", "cs_recv_name", "cs_recv_type",
        )}
        self.cs_args = _Rows()
        self.cs_args_type: List[int] = []
        self.inv_args = _Rows()
        # Label string ids by name; a source's also carry its const row.
        self._phi_labels: Dict[str, int] = {}
        self._phi_pred_labels: Dict[str, int] = {}
        self._param_labels: Dict[str, int] = {}
        self._load_labels: Dict[str, Tuple[int, int]] = {}
        self._store_labels: Dict[str, Tuple[int, int]] = {}
        self._invoke_labels: Dict[str, Tuple[int, int]] = {}
        self._return_label: Optional[int] = None
        self._sources: Dict[ConstantExpr, Tuple[int, int, bool]] = {}
        # An if's filter labels by (value, type, negated) or (left, right, op).
        self._type_checks: Dict[tuple, Tuple[int, int, int]] = {}
        self._comparisons: Dict[tuple, list] = {}
        # Per-method state, reset by build.
        self._qualified = ""
        self._lazy_phis: Set[int] = set()
        self._null_sources: Set[int] = set()
        self._seen_uses: Set[int] = set()
        self._seen_preds: Set[int] = set()

    def global_flow(self, kind: int, label: str, aux1: int = _NONE) -> None:
        """Append a flow no method owns (``pred_on``, a field)."""
        self.next_fid += 1
        self.flows.extend((kind, self._intern(label), _NONE, aux1, _NONE))

    def store_flows(self, columns: _Columns) -> None:
        for index, name in enumerate(_FLOW_COLUMNS):
            columns[name] = self.flows[index::len(_FLOW_COLUMNS)]

    def _flow(self, pred: int, kind: int, label: int,
              aux1: int = _NONE, aux2: int = _NONE) -> int:
        """Append a method flow guarded by ``pred``; returns its fid."""
        fid = self.next_fid
        self.next_fid = fid + 1
        self.flows.extend((kind, label, self._method_id, aux1, aux2))
        if pred:
            self.pred_targets.extend((pred, fid))
        else:
            self.method_pred.val.append(fid)
        self.predicates.extend((fid, pred))
        return fid

    def _phi_label(self, name: str) -> int:
        sid = self._phi_labels.get(name)
        if sid is None:
            sid = self._phi_labels[name] = self._intern("phi:" + name)
        return sid

    def _phi_use(self, source: int, phi: int) -> None:
        key = source << 32 | phi
        if key not in self._seen_uses:
            self._seen_uses.add(key)
            self.uses.extend((source, phi))

    # -- the traversal ---------------------------------------------------- #
    def build(self, method: Method, order: List[BasicBlock]) -> None:
        """Append the rows of ``method``, whose reachable blocks are
        ``order`` (in reverse postorder)."""
        self._method_id += 1
        self.flow_lo.append(self.next_fid)
        self._qualified = method.qualified_name
        self._lazy_phis = set()
        self._null_sources = null_sources = set()
        self._seen_uses.clear()
        self._seen_preds.clear()
        intern, flow = self._intern, self._flow
        uses, observers = self.uses, self.observers
        sources = self._sources
        loads, stores = self._load_labels, self._store_labels

        # Pre-create the phi_pred and phi flows of every merge, so that
        # forward and backward jumps alike can link against them.
        states: Dict[str, _BlockState] = {}
        for block in order:
            state = states[block.name] = _BlockState()
            merge = block.begin
            if isinstance(merge, Merge):
                state.merge = merge
                sid = self._phi_pred_labels.get(block.name)
                if sid is None:
                    sid = self._phi_pred_labels[block.name] = intern(
                        "phi_pred@" + block.name)
                state.pred = phi_pred = self.next_fid
                self.next_fid += 1
                self.flows.extend(
                    (schema.K_PHI_PRED, sid, self._method_id, _NONE, _NONE))
                for phi in merge.phis:
                    name = phi.result.name
                    state.m[name] = flow(phi_pred, schema.K_PHI,
                                         self._phi_label(name))

        for block in order:
            state = states[block.name]
            m = state.m
            start = block.begin
            if isinstance(start, Start):
                state.pred = self.pred_on
                self._parameters(start, m)
            pred = state.pred
            if pred is None:
                # A label block whose predecessor set no predicate would be
                # invalid IR; fall back to pred_on to stay sound.
                pred = self.pred_on
            # The only subscripts below that can miss are SSA lookups in a
            # block map (reverse_postorder resolved every jump target), so
            # a missing key is a value used before its definition.
            try:
                for statement in block.statements:
                    if isinstance(statement, Assign):
                        expr = statement.expr
                        source = sources.get(expr)
                        if source is None:
                            source = self._source(expr)
                        fid = flow(pred, schema.K_SOURCE, source[0], source[1])
                        if source[2]:
                            null_sources.add(fid)
                        m[statement.result.name] = fid
                    elif isinstance(statement, LoadField):
                        receiver = m[statement.receiver.name]
                        name = statement.field_name
                        labels = loads.get(name)
                        if labels is None:
                            labels = loads[name] = (
                                intern("load:" + name), intern(name))
                        fid = flow(pred, schema.K_LOAD_FIELD, labels[0],
                                   labels[1], receiver)
                        observers.extend((receiver, fid))
                        m[statement.result.name] = fid
                    elif isinstance(statement, StoreField):
                        receiver = m[statement.receiver.name]
                        value = m[statement.value.name]
                        name = statement.field_name
                        labels = stores.get(name)
                        if labels is None:
                            labels = stores[name] = (
                                intern("store:" + name), intern(name))
                        fid = flow(pred, schema.K_STORE_FIELD, labels[0],
                                   labels[1], receiver)
                        uses.extend((value, fid))
                        observers.extend((receiver, fid))
                    elif isinstance(statement, Invoke):
                        # Every invocation is a predicate for the statements
                        # after it (Section 3, "Method Invocations as
                        # Predicates").
                        pred = self._invoke(statement, m, pred)
                    else:
                        raise PVPGBuildError(
                            f"unsupported statement {statement!r} "
                            f"in {self._qualified}")
                state.pred = pred
                self._end(block, state, states)
            except KeyError as missing:
                raise PVPGBuildError(
                    f"value {missing.args[0]!r} has no flow in "
                    f"{self._qualified} (use before definition or missing "
                    "phi)") from None

        self.flow_hi.append(self.next_fid)
        for rows in (self.method_pred, self.method_param,
                     self.method_ret, self.method_inv):
            rows.end_row()

    def _parameters(self, start: Start, m: Dict[str, int]) -> None:
        labels = self._param_labels
        for index, param in enumerate(start.params):
            name = param.name
            sid = labels.get(name)
            if sid is None:
                sid = labels[name] = self._intern("param:" + name)
            m[name] = fid = self._flow(self.pred_on, schema.K_PARAMETER, sid,
                                       index, self._opt(param.declared_type))
            self.method_param.val.append(fid)

    def _source(self, expr: ConstantExpr) -> Tuple[int, int, bool]:
        """The label, const row and null-ness of a new constant."""
        label = self._intern(str(expr))
        row = self._first_const + len(self.const_kind)
        self.const_kind.append(schema.CONST_INDEX[expr.kind])
        self.const_int.append(expr.int_value if expr.kind is ConstKind.INT else 0)
        self.const_type.append(self._opt(expr.type_name))
        source = self._sources[expr] = (label, row, expr.kind is ConstKind.NULL)
        return source

    def _invoke(self, invoke: Invoke, m: Dict[str, int], pred: int) -> int:
        """Append an invoke flow and its call site; returns the flow."""
        intern, opt, cols = self._intern, self._opt, self.cs_cols
        recv = invoke.receiver
        receiver = _NONE if recv is None else m[recv.name]
        arguments = [m[value.name] for value in invoke.arguments]
        name = invoke.method_name
        labels = self._invoke_labels.get(name)
        if labels is None:
            labels = self._invoke_labels[name] = (
                intern("invoke:" + name), intern(name))
        fid = self._flow(pred, schema.K_INVOKE, labels[0],
                         self._first_call_site + len(cols["cs_kind"]), receiver)
        cols["cs_kind"].append(schema.INVOKE_INDEX[invoke.kind])
        cols["cs_method_name"].append(labels[1])
        cols["cs_target_class"].append(opt(invoke.target_class))
        result = invoke.result
        cols["cs_result_name"].append(_NONE if result is None else intern(result.name))
        cols["cs_result_type"].append(
            _NONE if result is None else opt(result.declared_type))
        cols["cs_recv_name"].append(_NONE if recv is None else intern(recv.name))
        cols["cs_recv_type"].append(
            _NONE if recv is None else opt(recv.declared_type))
        self.cs_args.add_row([intern(value.name) for value in invoke.arguments])
        self.cs_args_type.extend(
            [opt(value.declared_type) for value in invoke.arguments])
        if recv is not None:
            arguments.insert(0, receiver)
            self.observers.extend((receiver, fid))
        self.inv_args.add_row(arguments)
        self.method_inv.val.append(fid)
        if result is not None:
            m[result.name] = fid
        return fid

    def _end(self, block: BasicBlock, state: _BlockState,
             states: Dict[str, _BlockState]) -> None:
        end = block.end
        if isinstance(end, Return):
            sid = self._return_label
            if sid is None:
                sid = self._return_label = self._intern("return")
            fid = self._flow(state.pred, schema.K_RETURN, sid,
                             1 if end.value is None else 0)
            self.method_ret.val.append(fid)
            if end.value is not None:
                self.uses.extend((state.m[end.value.name], fid))
        elif isinstance(end, Jump):
            self._jump(state, end, states[end.target])
        elif isinstance(end, If):
            self._branch(state, end, states[end.then_label],
                         states[end.else_label])
        elif end is None:
            raise PVPGBuildError(
                f"block {block.name!r} in {self._qualified} is not terminated")
        else:
            raise PVPGBuildError(
                f"unsupported block end {end!r} in {self._qualified}")

    # -- control-flow transfer: jumps (propagate) and ifs (initBlock) ------ #
    def _jump(self, state: _BlockState, jump: Jump,
              target: _BlockState) -> None:
        merge = target.merge
        if merge is None:
            raise PVPGBuildError(
                f"jump to {jump.target!r}, which is not a merge block, "
                f"in {self._qualified}")
        # The end of this block being reachable makes the merge reachable.
        source, phi_pred = state.pred, target.pred
        key = source << 32 | phi_pred
        if key not in self._seen_preds:
            self._seen_preds.add(key)
            if source:
                self.pred_targets.extend((source, phi_pred))
            else:
                self.method_pred.val.append(phi_pred)
            self.predicates.extend((phi_pred, source))
        # Explicit phi operands contributed by this jump.
        m, target_m = state.m, target.m
        for phi, argument in zip(merge.phis, jump.phi_arguments):
            self._phi_use(m[argument.name], target_m[phi.result.name])
        # Remaining variables: inherit, or create a phi flow on collision.
        lazy_phis = self._lazy_phis
        for name, flow in m.items():
            existing = target_m.get(name)
            if existing is None:
                target_m[name] = flow
            elif existing != flow:
                if existing in lazy_phis:
                    self._phi_use(flow, existing)
                else:
                    phi = self._flow(phi_pred, schema.K_PHI, self._phi_label(name))
                    self._phi_use(existing, phi)
                    self._phi_use(flow, phi)
                    target_m[name] = phi
                    lazy_phis.add(phi)

    def _branch(self, state: _BlockState, end: If, then_state: _BlockState,
                else_state: _BlockState) -> None:
        """The filter flows of both branches of ``end`` and its branch row."""
        condition, m, pred = end.condition, state.m, state.pred
        if isinstance(condition, InstanceOfCondition):
            name = condition.value.name
            key = (name, condition.type_name, condition.negated)
            labels = self._type_checks.get(key)
            if labels is None:
                intern = self._intern
                labels = self._type_checks[key] = (
                    intern(str(condition)), intern(condition.type_name),
                    intern(str(condition.inverted())))
            tested = m[name]
            then_pred = self._type_branch(state, then_state, name, tested,
                                          labels[0], labels[1], condition.negated)
            else_pred = self._type_branch(state, else_state, name, tested,
                                          labels[2], labels[1], not condition.negated)
            kind = _TYPE_CHECK
        elif isinstance(condition, Condition):
            left, right = condition.left.name, condition.right.name
            key = (left, right, condition.op)
            labels = self._comparisons.get(key)
            if labels is None:
                labels = self._comparisons[key] = self._compare_labels(
                    left, right, condition.op)
            left_flow, right_flow = m[left], m[right]
            then_pred = self._compare_branch(
                state, then_state, left, right, left_flow, right_flow, *labels[0])
            else_pred = self._compare_branch(
                state, else_state, left, right, left_flow, right_flow, *labels[1])
            null_sources = self._null_sources
            kind = _NULL_CHECK if (m.get(left) in null_sources or m.get(right)
                                   in null_sources) else _PRIMITIVE_CHECK
        else:
            raise PVPGBuildError(
                f"unsupported condition {condition!r} in {self._qualified}")
        cols = self.branch_cols
        cols["br_kind"].append(kind)
        cols["br_then"].append(then_pred)
        cols["br_else"].append(else_pred)
        cols["br_block"].append(pred)

    def _compare_labels(self, left: str, right: str, op: CompareOp):
        """Label ids and op indexes of the filters of ``left op right``:
        ``(left label, right label, left op, right op)`` per branch."""
        branches = []
        for branch_op in (op, invert_compare_op(op)):
            flipped = flip_compare_op(branch_op)
            branches.append((
                self._intern(f"{left} {branch_op} {right}"),
                self._intern(f"{right} {flipped} {left}"),
                schema.OP_INDEX[branch_op], schema.OP_INDEX[flipped]))
        return branches

    def _type_branch(self, state: _BlockState, target: _BlockState, name: str,
                     tested: int, label: int, type_sid: int,
                     negated: bool) -> int:
        """One branch of a type check; returns its predicate flow."""
        # Label blocks have a single predecessor: inherit its whole map.
        target.m.update(state.m)
        fid = self._flow(state.pred, schema.K_FILTER_TYPE, label, type_sid,
                         1 if negated else 0)
        self.uses.extend((tested, fid))
        target.m[name] = target.pred = fid
        return fid

    def _compare_branch(self, state: _BlockState, target: _BlockState,
                        left: str, right: str, left_flow: int, right_flow: int,
                        left_label: int, right_label: int, left_op: int,
                        right_op: int) -> int:
        """One branch of a comparison: a filter per operand, each observing
        the other; returns the branch's predicate flow (the second)."""
        target.m.update(state.m)
        left_filter = self._flow(state.pred, schema.K_FILTER_COMPARE,
                                 left_label, left_op, right_flow)
        self.uses.extend((left_flow, left_filter))
        self.observers.extend((right_flow, left_filter))
        target.m[left] = left_filter
        right_filter = self._flow(left_filter, schema.K_FILTER_COMPARE,
                                  right_label, right_op, left_flow)
        self.uses.extend((right_flow, right_filter))
        self.observers.extend((left_flow, right_filter))
        target.m[right] = target.pred = right_filter
        return right_filter


def _allocation_sites(method) -> List[str]:
    """Types NEW'd in a method body, deduplicated in order of appearance."""
    seen: Dict[str, None] = {}
    for statement in method.iter_statements():
        if isinstance(statement, Assign) and statement.expr.kind is ConstKind.NEW:
            seen.setdefault(statement.expr.type_name)
    return list(seen)


@dataclass(frozen=True)
class _Offsets:
    """Where a lowering's ids start: 0 for a program, a base's counts for
    a segment appended to it."""

    strings: int = 0
    fields: int = 0
    methods: int = 0
    flows: int = 0
    consts: int = 0
    call_sites: int = 0

    @staticmethod
    def after(arena: ProgramArena) -> "_Offsets":
        return _Offsets(strings=arena.num_strings, fields=arena.num_fields,
                        methods=arena.num_methods, flows=arena.num_flows,
                        consts=len(arena.const_kind),
                        call_sites=len(arena.cs_kind))


def lower(program: Program) -> "LoweredArena":
    """Lower ``program`` into arena columns, in memory.

    No body is pickled, no fingerprint taken and no buffer written: the
    result points at the program's live hierarchy and method bodies.
    """
    methods = list(program.methods.values())
    columns, strings, _ = _lower(list(program.hierarchy), methods,
                                 list(program.entry_points), _Offsets())
    return LoweredArena(columns, strings, program.hierarchy, methods,
                        getattr(program, "program_fingerprint", None))


def _lower(classes: List[ClassType], methods: List[Method],
           entry_points: List[str], base: _Offsets):
    """The columns of ``classes``, ``methods`` and ``entry_points``.

    With zero offsets this is a whole program (``pred_on``, then every
    field, then every method's flows); with a base's offsets it is a
    segment to append to that base: its fields and flows continue the
    base's fids, its methods, constants and call sites the base's rows,
    and its pointer columns count from 0 within the segment.  Returns the
    columns, the new strings and the fids of the new fields.
    """
    strings = _Strings(base.strings)
    columns: _Columns = {}

    # ------------------------------------------------------------------ #
    # Type hierarchy, signature, and field tables
    # ------------------------------------------------------------------ #
    field_decls: List[FieldDecl] = []
    type_name: List[int] = []
    type_super: List[int] = []
    type_flags: List[int] = []
    iface_rows = _Rows()
    fields_ptr = [0]
    sigs_ptr = [0]
    field_class: List[int] = []
    field_name: List[int] = []
    field_type: List[int] = []
    sig_class: List[int] = []
    sig_name: List[int] = []
    sig_return: List[int] = []
    sig_static: List[int] = []
    sig_param_rows = _Rows()

    for cls in classes:
        type_name.append(strings.intern(cls.name))
        type_super.append(strings.opt(cls.superclass))
        type_flags.append(
            (schema.TYPE_FLAG_INTERFACE if cls.is_interface else 0)
            | (schema.TYPE_FLAG_ABSTRACT if cls.is_abstract else 0))
        iface_rows.add_row([strings.intern(name) for name in cls.interfaces])
        for decl in cls.fields.values():
            field_decls.append(decl)
            field_class.append(strings.intern(decl.declaring_class))
            field_name.append(strings.intern(decl.name))
            field_type.append(strings.intern(decl.declared_type))
        fields_ptr.append(len(field_decls))
        for sig in cls.declared_methods.values():
            sig_class.append(strings.intern(sig.declaring_class))
            sig_name.append(strings.intern(sig.name))
            sig_return.append(strings.intern(sig.return_type))
            sig_static.append(1 if sig.is_static else 0)
            sig_param_rows.add_row([strings.intern(p) for p in sig.param_types])
        sigs_ptr.append(len(sig_class))

    columns["type_name"] = type_name
    columns["type_super"] = type_super
    columns["type_flags"] = type_flags
    iface_rows.store(columns, "type_ifaces_ptr", "type_ifaces_val")
    columns["type_fields_ptr"] = fields_ptr
    columns["type_sigs_ptr"] = sigs_ptr
    columns["field_class"] = field_class
    columns["field_name"] = field_name
    columns["field_type"] = field_type
    columns["sig_class"] = sig_class
    columns["sig_name"] = sig_name
    columns["sig_return"] = sig_return
    columns["sig_static"] = sig_static
    sig_param_rows.store(columns, "sig_params_ptr", "sig_params_val")

    # ------------------------------------------------------------------ #
    # Method table (its strings precede every flow's)
    # ------------------------------------------------------------------ #
    orders = [reverse_postorder(method) for method in methods]
    method_name: List[int] = []
    m_sig_class: List[int] = []
    m_sig_name: List[int] = []
    m_sig_return: List[int] = []
    m_sig_static: List[int] = []
    m_sig_param_rows = _Rows()
    m_never_returns: List[int] = []
    m_instr_count: List[int] = []
    alloc_rows = _Rows()
    br_ptr = [0]

    # The fid columns of each branch (br_kind/then/else/block) come from
    # the traversal below, which meets the ifs in this same order; their
    # strings must be interned before any flow's.
    branch_cols: Dict[str, List[int]] = {name: [] for name in (
        "br_then_label", "br_else_label", "br_is_instanceof",
        "br_val_name", "br_val_type", "br_type_name", "br_negated",
        "br_op", "br_left_name", "br_left_type",
        "br_right_name", "br_right_type",
    )}

    for method, order in zip(methods, orders):
        sig = method.signature
        method_name.append(strings.intern(method.qualified_name))
        m_sig_class.append(strings.intern(sig.declaring_class))
        m_sig_name.append(strings.intern(sig.name))
        m_sig_return.append(strings.intern(sig.return_type))
        m_sig_static.append(1 if sig.is_static else 0)
        m_sig_param_rows.add_row([strings.intern(p) for p in sig.param_types])
        m_never_returns.append(1 if method.never_returns else 0)
        m_instr_count.append(method.instruction_count)
        alloc_rows.add_row(
            [strings.intern(name) for name in _allocation_sites(method)])

        ifs = [block.end for block in order if isinstance(block.end, If)]
        for instruction in ifs:
            condition = instruction.condition
            cols = branch_cols
            cols["br_then_label"].append(strings.intern(instruction.then_label))
            cols["br_else_label"].append(strings.intern(instruction.else_label))
            if isinstance(condition, InstanceOfCondition):
                cols["br_is_instanceof"].append(1)
                cols["br_val_name"].append(strings.intern(condition.value.name))
                cols["br_val_type"].append(
                    strings.opt(condition.value.declared_type))
                cols["br_type_name"].append(strings.intern(condition.type_name))
                cols["br_negated"].append(1 if condition.negated else 0)
                for name in ("br_op", "br_left_name", "br_left_type",
                             "br_right_name", "br_right_type"):
                    cols[name].append(_NONE)
            else:
                assert isinstance(condition, Condition)
                cols["br_is_instanceof"].append(0)
                for name in ("br_val_name", "br_val_type",
                             "br_type_name", "br_negated"):
                    cols[name].append(_NONE)
                cols["br_op"].append(schema.OP_INDEX[condition.op])
                cols["br_left_name"].append(strings.intern(condition.left.name))
                cols["br_left_type"].append(
                    strings.opt(condition.left.declared_type))
                cols["br_right_name"].append(strings.intern(condition.right.name))
                cols["br_right_type"].append(
                    strings.opt(condition.right.declared_type))
        br_ptr.append(br_ptr[-1] + len(ifs))

    entry_sids = [strings.intern(name) for name in entry_points]

    # ------------------------------------------------------------------ #
    # Flows: pred_on, the field flows, then every method's graph
    # ------------------------------------------------------------------ #
    builder = _PVPGBuilder(strings, base)
    if not base.flows:
        builder.global_flow(schema.K_PRED_ON, "pred_on")
    field_fids = []
    for index, decl in enumerate(field_decls, base.fields):
        field_fids.append(builder.next_fid)
        builder.global_flow(schema.K_FIELD, decl.qualified_name, index)
    for method, order in zip(methods, orders):
        builder.build(method, order)
    num_flows = builder.next_fid - base.flows

    # ------------------------------------------------------------------ #
    # Columns, in section order (serialize writes them in this order)
    # ------------------------------------------------------------------ #
    columns["method_name"] = method_name
    columns["method_sig_class"] = m_sig_class
    columns["method_sig_name"] = m_sig_name
    columns["method_sig_return"] = m_sig_return
    columns["method_sig_static"] = m_sig_static
    m_sig_param_rows.store(columns, "method_sig_params_ptr", "method_sig_params_val")
    columns["method_never_returns"] = m_never_returns
    columns["method_instr_count"] = m_instr_count
    columns["method_flow_lo"] = builder.flow_lo
    columns["method_flow_hi"] = builder.flow_hi
    builder.method_pred.store(columns, "method_pred_ptr", "method_pred_val")
    builder.method_param.store(columns, "method_param_ptr", "method_param_val")
    builder.method_ret.store(columns, "method_ret_ptr", "method_ret_val")
    builder.method_inv.store(columns, "method_inv_ptr", "method_inv_val")
    alloc_rows.store(columns, "method_alloc_ptr", "method_alloc_val")
    columns["method_br_ptr"] = br_ptr
    for name in ("br_kind", "br_then", "br_else", "br_block"):
        columns[name] = builder.branch_cols[name]
    for name, column in branch_cols.items():
        columns[name] = column

    columns["entry_points"] = entry_sids

    builder.store_flows(columns)
    for ptr_name, val_name, pairs in (
            ("use_ptr", "use_val", builder.uses),
            ("obs_ptr", "obs_val", builder.observers),
            ("ptgt_ptr", "ptgt_val", builder.pred_targets),
            ("pin_ptr", "pin_val", builder.predicates)):
        _store_pairs(columns, ptr_name, val_name, pairs, num_flows, base.flows)

    columns["const_kind"] = builder.const_kind
    columns["const_int"] = builder.const_int
    columns["const_type"] = builder.const_type
    for name, column in builder.cs_cols.items():
        columns[name] = column
    # cs_args_type shares cs_args_ptr (one name and one type per argument).
    builder.cs_args.store(columns, "cs_args_ptr", "cs_args_name")
    columns["cs_args_type"] = builder.cs_args_type
    builder.inv_args.store(columns, "inv_args_ptr", "inv_args_val")
    return columns, strings.texts, field_fids


class LoweredArena(ProgramArena):
    """The arena columns of one program, held in memory.

    Reads like an attached :class:`~repro.ir.arena.program.ProgramArena`
    (the same integer columns, as plain lists, and the same string ids),
    so the arena kernel solves it unchanged.  There is no buffer:
    method bodies are the live :class:`~repro.ir.method.Method` objects
    (in method-id order), and the program fingerprint is taken only if
    someone asks — :func:`serialize`, or a warm-resume check.
    """

    def __init__(self, columns: _Columns, strings: List[str],
                 hierarchy: TypeHierarchy, methods: List[Method],
                 fingerprint: Optional[ProgramFingerprint] = None) -> None:
        self.columns = columns
        for name, column in columns.items():
            setattr(self, name, column)
        self._strings = strings
        self.hierarchy = hierarchy
        self.methods = methods
        self._fingerprint = fingerprint
        self._name_to_mid = None
        self._field_fids = None
        self._field_flow_ids = None

    @property
    def strings(self) -> List[str]:
        """The string table, by string id."""
        return self._strings

    @property
    def fingerprint(self) -> ProgramFingerprint:
        """The fingerprint of the lowered program, taken on first use.

        Only the classes lowered count: the hierarchy is the live one,
        which a delta extending this arena may have grown since.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_of(
                islice(self.hierarchy, self.num_types), self.methods,
                self.entry_point_names())
        return self._fingerprint

    def method_blocks(self, mid: int) -> list:
        return self.methods[mid].blocks

    def body_sections(self):
        return _pickled_bodies(self.methods, [0], b"")

    def to_bytes(self) -> bytes:
        return serialize(self)


def _pickled_bodies(methods: List[Method], ptr, blob):
    """The ``ptr``/``blob`` body sections followed by ``methods``' pickles."""
    pickles = [pickle.dumps(method.blocks, protocol=pickle.HIGHEST_PROTOCOL)
               for method in methods]
    offsets = list(accumulate(map(len, pickles), initial=ptr[-1]))
    return [*ptr, *offsets[1:]], bytes(blob) + b"".join(pickles)


def _ints(column) -> array:
    """A growable copy of an integer column (a list, array or memoryview)."""
    if isinstance(column, list):
        return array("q", column)
    copy = array("q")
    copy.frombytes(memoryview(column).cast("B"))
    return copy


class ExtendedArena(ProgramArena):
    """A base arena with the lowering of one monotone delta appended.

    Every base id keeps its meaning: the segment's types, fields,
    signatures, methods, branches, constants and call sites are numbered
    after the base's rows, and its flows after the base's fids, so a
    fixpoint solved over the base is a valid partial fixpoint of the
    extension (the arena kernel resumes it).  The integer columns are
    compact ``array('q')`` copies of the base's with the segment's rows
    appended; pointer columns continue the base's last offset.  Strings
    are the base's (decoded lazily) followed by the segment's own, method
    bodies are the base's followed by the delta's live methods, and the
    fingerprint extends the base's with the delta's classes, method
    digests and entry points.  :func:`serialize` writes it like any other
    arena, fids included, so a re-based session's states stay valid.
    """

    def __init__(self, base: ProgramArena, classes: List[ClassType],
                 methods: List[Method], entry_points: List[str],
                 digests: Dict[str, str]) -> None:
        columns, strings, field_fids = _lower(
            classes, methods, entry_points, _Offsets.after(base))
        self.base = base
        self.columns = {}
        for name, segment in columns.items():
            column = _ints(getattr(base, name))
            if name.endswith("_ptr"):
                last = column[-1]
                column.extend([offset + last for offset in segment[1:]])
            else:
                column.extend(segment)
            self.columns[name] = column
            setattr(self, name, column)
        self.str_blob = getattr(base, "str_blob", None)
        self.str_offsets = getattr(base, "str_offsets", None)
        self._strings = list(base._strings) + strings
        self.new_methods = methods
        self._classes = classes
        self._digests = digests
        self._fingerprint = None
        first_mid = base.num_methods
        names = base._name_to_mid
        self._name_to_mid = None if names is None else {
            **names, **{method.qualified_name: first_mid + index
                        for index, method in enumerate(methods)}}
        fields = base._field_fids
        self._field_fids = None if fields is None else {
            **fields, **{decl.qualified_name: fid for decl, fid in zip(
                (decl for cls in classes for decl in cls.fields.values()),
                field_fids)}}
        self._field_flow_ids = base.field_flow_ids() + field_fids

    @property
    def fingerprint(self) -> ProgramFingerprint:
        """The base's fingerprint extended by the segment's (taken lazily)."""
        if self._fingerprint is None:
            base = self.base.fingerprint
            self._fingerprint = ProgramFingerprint(
                classes=tuple(sorted(base.classes + tuple(
                    (cls.name, class_shape(cls)) for cls in self._classes))),
                methods=tuple(sorted(
                    base.methods + tuple(self._digests.items()))),
                entry_points=tuple(self.entry_point_names()))
        return self._fingerprint

    def method_blocks(self, mid: int) -> list:
        first = self.base.num_methods
        if mid < first:
            return self.base.method_blocks(mid)
        return self.new_methods[mid - first].blocks

    def body_sections(self):
        return _pickled_bodies(self.new_methods, *self.base.body_sections())

    def to_bytes(self) -> bytes:
        return serialize(self)


def serialize(lowered: ProgramArena,
              fingerprint: Optional[ProgramFingerprint] = None) -> bytes:
    """Write an in-memory arena as one buffer, bodies and fingerprint included.

    ``lowered`` is a :class:`LoweredArena` or an :class:`ExtendedArena`.
    ``fingerprint`` is the lowered program's, when the caller has it
    (:func:`freeze` takes it through the program's memo); otherwise the
    arena's own is used.  The section order is part of the bytes: the
    lowered columns in their order, with the pickled bodies after the
    allocation-site CSR, then the fingerprint and the string table.
    """
    if fingerprint is None:
        fingerprint = lowered.fingerprint
    body_ptr, body_blob = lowered.body_sections()
    writer = BufferWriter()
    for name, column in lowered.columns.items():
        writer.add_ints(name, column)
        if name == "method_alloc_val":
            writer.add_ints("method_body_ptr", body_ptr)
            writer.add_bytes("body_blob", body_blob)
    writer.add_bytes(
        "fingerprint_blob",
        pickle.dumps(fingerprint, protocol=pickle.HIGHEST_PROTOCOL))
    encoded = [text.encode("utf-8") for text in lowered.strings]
    writer.add_ints("str_offsets", accumulate(map(len, encoded), initial=0))
    writer.add_bytes("str_blob", b"".join(encoded))
    return writer.to_bytes()


def freeze(program: Program) -> bytes:
    """Flatten ``program`` into a single serialized arena buffer.

    The stamped fingerprint comes from :meth:`ProgramFingerprint.of`, so
    freezing shares the program's body digests with snapshot stamping and
    resume validation.
    """
    return serialize(lower(program), ProgramFingerprint.of(program))


def _view(program: Program) -> ArenaProgram:
    return ArenaProgram(lower(program), program)


def current_lowering(program: Program) -> Optional[ArenaProgram]:
    """``program``'s memoized :func:`lowered_program` if it is current
    (``None`` otherwise; nothing is lowered)."""
    return program.peek(_view)


def prime_lowering(program: Program, view: ArenaProgram) -> None:
    """Record ``view`` — a lowering of ``program`` that a monotone delta
    just extended (:meth:`ArenaProgram.extend`) — as its current one."""
    program.prime(_view, view)


def lowered_program(program: Program) -> ArenaProgram:
    """A read-only :class:`ArenaProgram` over ``program``'s lowering.

    The live hierarchy, methods and entry points, plus in-memory columns;
    :class:`~repro.core.analysis.SkipFlowAnalysis` solves it on the arena
    kernel.  Lowered at most once per :attr:`Program.revision`
    (:meth:`Program.memoized`), so every config built over an unchanged
    program shares one lowering; a monotone
    :class:`~repro.ir.delta.ProgramDelta` extends the current lowering in
    place instead of invalidating it, so solver states over it resume.  An
    ``ArenaProgram`` is returned as is.
    """
    if isinstance(program, ArenaProgram):
        return program
    return program.memoized(_view)
