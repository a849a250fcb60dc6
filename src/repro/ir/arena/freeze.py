"""``freeze(program)``: flatten a built program into one arena buffer.

The freeze pass lowers the IR of *every* method straight into the
struct-of-arrays schema of :mod:`repro.ir.arena.layout` (the object solver
builds method graphs lazily per reachable method; freezing all of them up
front is a one-time cost paid when the program is stored).  It runs the
PVPG builder's one traversal (:class:`~repro.core.pvpg_builder.PVPGBuilder`)
with a column sink, :class:`_ColumnSink`, whose flow handles *are* the
integer flow ids, so no object flow, object graph or flow-id map exists:

* every flow gets a dense integer id (*fid*): fid 0 is ``pred_on``, fids
  ``1..NF`` are the program's declared fields in declaration order, and
  each method owns the contiguous fid range of its flows in registration
  order — so "activate a method" becomes "enable an fid range";
* build-time edges (uses / observers / predicate targets / incoming
  predicates) become CSR ranges over fids: the sink appends each edge as a
  (source, target) pair, deduplicated like the object ``add_*`` methods,
  and a stable sort by row keeps each row in insertion order.  Edges
  created *during* a solve (field linking, call linking, ``pred_on``
  fan-out to activated methods) are intentionally absent: the kernel adds
  them to dynamic side tables, exactly as the object solver grows the
  object graph;
* per-kind flow payloads (constants, call sites, compared operands, ...)
  become integer columns over small auxiliary tables;
* method bodies are pickled *individually* so an attached program can thaw
  one method without touching the rest — and the arena kernel never thaws
  any;
* the whole buffer is stamped with the pickled
  :class:`~repro.ir.delta.ProgramFingerprint` of the source program, so
  attach-side consumers validate against exactly what was frozen.

Strings are interned in one table in a fixed order (type tables, method
table, entry points, then flows in fid order), and sections are written in
a fixed order, so the buffer is a pure function of the program.

``filtering_enabled`` of filter flows is *not* encoded: it is a property
of the analysis config, reapplied when flows are inflated, which keeps the
frozen structure config-independent (one arena serves every config).
"""

from __future__ import annotations

import operator
import pickle
from array import array
from itertools import accumulate
from typing import Dict, List, Optional, Set

from repro.core.pvpg import BranchKind
from repro.core.pvpg_builder import PVPGBuilder
from repro.ir.arena import schema
from repro.ir.arena.layout import BufferWriter
from repro.ir.cfg import ControlFlowGraph
from repro.ir.delta import ProgramFingerprint
from repro.ir.instructions import (
    Assign,
    CompareOp,
    Condition,
    If,
    InstanceOfCondition,
    Invoke,
)
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.types import FieldDecl
from repro.ir.values import ConstantExpr, ConstKind

_NONE = schema.NONE_ID


class _Strings:
    """Interning UTF-8 string table (``str_offsets`` + ``str_blob``)."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._parts: List[bytes] = []
        self._offsets = array("q", [0])
        self._size = 0

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self._ids)
            self._ids[text] = sid
            encoded = text.encode("utf-8")
            self._parts.append(encoded)
            self._size += len(encoded)
            self._offsets.append(self._size)
        return sid

    def opt(self, text: Optional[str]) -> int:
        return _NONE if text is None else self.intern(text)

    def write(self, writer: BufferWriter) -> None:
        writer.add_ints("str_offsets", self._offsets)
        writer.add_bytes("str_blob", b"".join(self._parts))


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

    def write(self, writer: BufferWriter, ptr_name: str, val_name: str) -> None:
        writer.add_ints(ptr_name, self.ptr)
        writer.add_ints(val_name, self.val)


def _write_pairs(writer: BufferWriter, ptr_name: str, val_name: str,
                 pairs: List[int], num_rows: int) -> None:
    """Write flat ``(row, value, row, value, ...)`` pairs as a CSR.

    ``sorted`` is stable, so every row keeps its values' insertion order.
    """
    rows, vals = pairs[0::2], pairs[1::2]
    counts = [0] * (num_rows + 1)
    for row in rows:
        counts[row + 1] += 1
    order = sorted(range(len(rows)), key=rows.__getitem__)
    writer.add_ints(ptr_name, array("q", accumulate(counts)))
    writer.add_ints(val_name, array("q", map(vals.__getitem__, order)))


#: Columns of one flow row, in the order of :attr:`_ColumnSink.flows`.
_FLOW_COLUMNS = ("flow_kind", "flow_label", "flow_method", "flow_aux1", "flow_aux2")


class _ColumnSink:
    """A :class:`~repro.core.pvpg_builder.FlowSink` writing arena columns.

    Handles are fids, handed out in registration order after the
    ``pred_on`` and field rows (:meth:`global_flow`).  Strings are interned
    label first, then payload, flow by flow.  Columns accumulate in flat
    lists (cheaper to extend than arrays) and become arrays when written.
    """

    pred_on = 0

    def __init__(self, strings: _Strings) -> None:
        self._intern = strings.intern
        self._opt = strings.opt
        self._next = 0
        self._method_id = _NONE
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
        #: The ``if`` instructions behind the ``branch_cols`` rows.
        self.branch_ifs: List[If] = []
        self._const_ids: Dict[ConstantExpr, int] = {}
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
        # Edge dedup keys of the current method (build-time edges never
        # leave a method, apart from pred_on's, whose targets are in it).
        self._seen_use: Set[int] = set()
        self._seen_obs: Set[int] = set()
        self._seen_pred: Set[int] = set()

    @property
    def num_flows(self) -> int:
        return self._next

    def global_flow(self, kind: int, label: str, aux1: int = _NONE) -> None:
        """Append a flow no method owns (``pred_on``, a field)."""
        self._next += 1
        self.flows.extend((kind, self._intern(label), _NONE, aux1, _NONE))

    def write_flows(self, writer: BufferWriter) -> None:
        for index, name in enumerate(_FLOW_COLUMNS):
            writer.add_ints(name, self.flows[index::len(_FLOW_COLUMNS)])

    def begin_method(self, method: Method) -> None:
        self._method_id += 1
        self.flow_lo.append(self._next)

    def end_method(self) -> None:
        self.flow_hi.append(self._next)
        for rows in (self.method_pred, self.method_param,
                     self.method_ret, self.method_inv):
            rows.end_row()
        self._seen_use.clear()
        self._seen_obs.clear()
        self._seen_pred.clear()

    def _emit(self, pred: int, kind: int, label: int,
              aux1: int = _NONE, aux2: int = _NONE) -> int:
        """Append a method flow guarded by ``pred``; returns its fid.

        The predicate edge needs no dedup (see ``FlowSink``).
        """
        fid = self._next
        self._next = fid + 1
        self.flows.extend((kind, label, self._method_id, aux1, aux2))
        if pred:
            self.pred_targets.extend((pred, fid))
        else:
            self.method_pred.val.append(fid)
        self.predicates.extend((fid, pred))
        return fid

    # -- flows ----------------------------------------------------------- #
    def phi_pred(self, label: str) -> int:
        fid = self._next
        self._next = fid + 1
        self.flows.extend(
            (schema.K_PHI_PRED, self._intern(label), self._method_id, _NONE, _NONE))
        return fid

    def phi(self, pred: int, label: str) -> int:
        return self._emit(pred, schema.K_PHI, self._intern(label))

    def parameter(self, pred: int, label: str, index: int,
                  declared_type: Optional[str]) -> int:
        sid = self._intern(label)
        fid = self._emit(pred, schema.K_PARAMETER, sid,
                         index, self._opt(declared_type))
        self.method_param.val.append(fid)
        return fid

    def source(self, pred: int, label: str, expr: ConstantExpr) -> int:
        sid = self._intern(label)
        return self._emit(pred, schema.K_SOURCE, sid, self._const_row(expr))

    def load_field(self, pred: int, label: str, field_name: str,
                   receiver: int) -> int:
        sid = self._intern(label)
        return self._emit(pred, schema.K_LOAD_FIELD, sid,
                          self._intern(field_name), receiver)

    def store_field(self, pred: int, label: str, field_name: str,
                    receiver: int) -> int:
        sid = self._intern(label)
        return self._emit(pred, schema.K_STORE_FIELD, sid,
                          self._intern(field_name), receiver)

    def invoke(self, pred: int, label: str, invoke: Invoke,
               receiver: Optional[int], arguments: List[int]) -> int:
        intern, opt, cols = self._intern, self._opt, self.cs_cols
        sid = intern(label)
        fid = self._emit(pred, schema.K_INVOKE, sid, len(cols["cs_kind"]),
                         _NONE if receiver is None else receiver)
        cols["cs_kind"].append(schema.INVOKE_INDEX[invoke.kind])
        cols["cs_method_name"].append(intern(invoke.method_name))
        cols["cs_target_class"].append(opt(invoke.target_class))
        result = invoke.result
        cols["cs_result_name"].append(_NONE if result is None else intern(result.name))
        cols["cs_result_type"].append(
            _NONE if result is None else opt(result.declared_type))
        recv = invoke.receiver
        cols["cs_recv_name"].append(_NONE if recv is None else intern(recv.name))
        cols["cs_recv_type"].append(
            _NONE if recv is None else opt(recv.declared_type))
        self.cs_args.add_row([intern(value.name) for value in invoke.arguments])
        self.cs_args_type.extend(
            [opt(value.declared_type) for value in invoke.arguments])
        self.inv_args.add_row(arguments)
        self.method_inv.val.append(fid)
        return fid

    def return_(self, pred: int, label: str, returns_void: bool) -> int:
        fid = self._emit(pred, schema.K_RETURN, self._intern(label),
                         1 if returns_void else 0)
        self.method_ret.val.append(fid)
        return fid

    def filter_type(self, pred: int, label: str, type_name: str,
                    negated: bool) -> int:
        sid = self._intern(label)
        return self._emit(pred, schema.K_FILTER_TYPE, sid,
                          self._intern(type_name), 1 if negated else 0)

    def filter_compare(self, pred: int, label: str, op: CompareOp,
                       observed: int) -> int:
        return self._emit(pred, schema.K_FILTER_COMPARE, self._intern(label),
                          schema.OP_INDEX[op], observed)

    def _const_row(self, expr: ConstantExpr) -> int:
        row = self._const_ids.get(expr)
        if row is None:
            row = len(self._const_ids)
            self._const_ids[expr] = row
            self.const_kind.append(schema.CONST_INDEX[expr.kind])
            self.const_int.append(expr.int_value if expr.kind is ConstKind.INT else 0)
            self.const_type.append(self._opt(expr.type_name))
        return row

    # -- edges ----------------------------------------------------------- #
    def add_use(self, source: int, target: int) -> None:
        key = source << 32 | target
        if key not in self._seen_use:
            self._seen_use.add(key)
            self.uses.extend((source, target))

    def add_observer(self, source: int, target: int) -> None:
        key = source << 32 | target
        if key not in self._seen_obs:
            self._seen_obs.add(key)
            self.observers.extend((source, target))

    def add_predicate(self, source: int, target: int) -> None:
        key = source << 32 | target
        if key not in self._seen_pred:
            self._seen_pred.add(key)
            if source:
                self.pred_targets.extend((source, target))
            else:
                self.method_pred.val.append(target)
            self.predicates.extend((target, source))

    def branch(self, instruction: If, kind: BranchKind, then_pred: int,
               else_pred: int, block_pred: int) -> None:
        self.branch_ifs.append(instruction)
        cols = self.branch_cols
        cols["br_kind"].append(schema.BRANCH_INDEX[kind])
        cols["br_then"].append(then_pred)
        cols["br_else"].append(else_pred)
        cols["br_block"].append(block_pred)


def _allocation_sites(method) -> List[str]:
    """Types NEW'd in a method body, deduplicated in order of appearance."""
    seen: Dict[str, None] = {}
    for statement in method.iter_statements():
        if isinstance(statement, Assign) and statement.expr.kind is ConstKind.NEW:
            seen.setdefault(statement.expr.type_name)
    return list(seen)


def _branches(cfg: ControlFlowGraph) -> List[If]:
    """The ``if`` block ends in reverse postorder.

    Their strings must be interned before any flow's, so this predicts the
    order in which the builder reports them; ``freeze`` checks the
    prediction against the column sink's ``branch_ifs``.
    """
    ends = (cfg.blocks[name].end for name in cfg.reverse_postorder)
    return [end for end in ends if isinstance(end, If)]


def freeze(program: Program) -> bytes:
    """Flatten ``program`` into a single serialized arena buffer."""
    strings = _Strings()
    writer = BufferWriter()
    fingerprint = ProgramFingerprint.of(program)

    # ------------------------------------------------------------------ #
    # Type hierarchy, signature, and field tables
    # ------------------------------------------------------------------ #
    field_decls: List[FieldDecl] = []
    type_name = array("q")
    type_super = array("q")
    type_flags = array("q")
    iface_rows = _Rows()
    fields_ptr = array("q", [0])
    sigs_ptr = array("q", [0])
    field_class = array("q")
    field_name = array("q")
    field_type = array("q")
    sig_class = array("q")
    sig_name = array("q")
    sig_return = array("q")
    sig_static = array("q")
    sig_param_rows = _Rows()

    for cls in program.hierarchy:
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

    writer.add_ints("type_name", type_name)
    writer.add_ints("type_super", type_super)
    writer.add_ints("type_flags", type_flags)
    iface_rows.write(writer, "type_ifaces_ptr", "type_ifaces_val")
    writer.add_ints("type_fields_ptr", fields_ptr)
    writer.add_ints("type_sigs_ptr", sigs_ptr)
    writer.add_ints("field_class", field_class)
    writer.add_ints("field_name", field_name)
    writer.add_ints("field_type", field_type)
    writer.add_ints("sig_class", sig_class)
    writer.add_ints("sig_name", sig_name)
    writer.add_ints("sig_return", sig_return)
    writer.add_ints("sig_static", sig_static)
    sig_param_rows.write(writer, "sig_params_ptr", "sig_params_val")

    # ------------------------------------------------------------------ #
    # Method table (its strings precede every flow's)
    # ------------------------------------------------------------------ #
    methods = list(program.methods.values())
    cfgs = [ControlFlowGraph(method) for method in methods]
    method_name = array("q")
    m_sig_class = array("q")
    m_sig_name = array("q")
    m_sig_return = array("q")
    m_sig_static = array("q")
    m_sig_param_rows = _Rows()
    m_never_returns = array("q")
    m_instr_count = array("q")
    alloc_rows = _Rows()
    body_ptr = array("q", [0])
    body_parts: List[bytes] = []
    body_size = 0
    br_ptr = array("q", [0])

    # The fid columns of each branch (br_kind/then/else/block) come from
    # the traversal below, which must meet the ifs in this same order.
    branch_ifs: List[If] = []
    branch_cols = {name: array("q") for name in (
        "br_then_label", "br_else_label", "br_is_instanceof",
        "br_val_name", "br_val_type", "br_type_name", "br_negated",
        "br_op", "br_left_name", "br_left_type",
        "br_right_name", "br_right_type",
    )}

    for method, cfg in zip(methods, cfgs):
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
        blob = pickle.dumps(method.blocks, protocol=pickle.HIGHEST_PROTOCOL)
        body_parts.append(blob)
        body_size += len(blob)
        body_ptr.append(body_size)

        ifs = _branches(cfg)
        branch_ifs.extend(ifs)
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
        br_ptr.append(len(branch_ifs))

    entry_points = array(
        "q", [strings.intern(name) for name in program.entry_points])

    # ------------------------------------------------------------------ #
    # Flows: pred_on, the field flows, then every method's graph
    # ------------------------------------------------------------------ #
    sink = _ColumnSink(strings)
    sink.global_flow(schema.K_PRED_ON, "pred_on")
    for index, decl in enumerate(field_decls):
        sink.global_flow(schema.K_FIELD, decl.qualified_name, index)
    builder = PVPGBuilder(sink)
    for method, cfg in zip(methods, cfgs):
        builder.build_method(method, cfg)
    assert len(sink.branch_ifs) == len(branch_ifs) and all(
        map(operator.is_, sink.branch_ifs, branch_ifs)), (
        "branch string columns out of step with the builder's branch order")
    num_flows = sink.num_flows

    # ------------------------------------------------------------------ #
    # Sections, in schema order (the order is part of the bytes)
    # ------------------------------------------------------------------ #
    writer.add_ints("method_name", method_name)
    writer.add_ints("method_sig_class", m_sig_class)
    writer.add_ints("method_sig_name", m_sig_name)
    writer.add_ints("method_sig_return", m_sig_return)
    writer.add_ints("method_sig_static", m_sig_static)
    m_sig_param_rows.write(writer, "method_sig_params_ptr", "method_sig_params_val")
    writer.add_ints("method_never_returns", m_never_returns)
    writer.add_ints("method_instr_count", m_instr_count)
    writer.add_ints("method_flow_lo", sink.flow_lo)
    writer.add_ints("method_flow_hi", sink.flow_hi)
    sink.method_pred.write(writer, "method_pred_ptr", "method_pred_val")
    sink.method_param.write(writer, "method_param_ptr", "method_param_val")
    sink.method_ret.write(writer, "method_ret_ptr", "method_ret_val")
    sink.method_inv.write(writer, "method_inv_ptr", "method_inv_val")
    alloc_rows.write(writer, "method_alloc_ptr", "method_alloc_val")
    writer.add_ints("method_body_ptr", body_ptr)
    writer.add_bytes("body_blob", b"".join(body_parts))
    writer.add_ints("method_br_ptr", br_ptr)
    for name in ("br_kind", "br_then", "br_else", "br_block"):
        writer.add_ints(name, sink.branch_cols[name])
    for name, column in branch_cols.items():
        writer.add_ints(name, column)

    writer.add_ints("entry_points", entry_points)

    sink.write_flows(writer)
    _write_pairs(writer, "use_ptr", "use_val", sink.uses, num_flows)
    _write_pairs(writer, "obs_ptr", "obs_val", sink.observers, num_flows)
    _write_pairs(writer, "ptgt_ptr", "ptgt_val", sink.pred_targets, num_flows)
    _write_pairs(writer, "pin_ptr", "pin_val", sink.predicates, num_flows)

    writer.add_ints("const_kind", sink.const_kind)
    writer.add_ints("const_int", sink.const_int)
    writer.add_ints("const_type", sink.const_type)
    for name, column in sink.cs_cols.items():
        writer.add_ints(name, column)
    # cs_args_type shares cs_args_ptr (one name and one type per argument).
    sink.cs_args.write(writer, "cs_args_ptr", "cs_args_name")
    writer.add_ints("cs_args_type", sink.cs_args_type)
    sink.inv_args.write(writer, "inv_args_ptr", "inv_args_val")

    writer.add_bytes(
        "fingerprint_blob",
        pickle.dumps(fingerprint, protocol=pickle.HIGHEST_PROTOCOL))

    strings.write(writer)
    return writer.to_bytes()
