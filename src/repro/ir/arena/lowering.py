"""``lower(program)`` and ``serialize``: a built program as arena columns.

Freezing is two steps.  :func:`lower` lowers the IR of *every* method
straight into the struct-of-arrays schema of :mod:`repro.ir.arena.layout`
(the object solver builds method graphs lazily per reachable method;
lowering all of them up front pays off once two configs share it), as
integer columns held in memory beside the live method bodies and
hierarchy.  :func:`serialize` adds what only a stored buffer needs — the
pickled method bodies and the program fingerprint — and writes the one
buffer.  ``freeze(program)`` is ``serialize(lower(program))``; the program
store, the daemon's spill and the fuzz oracle call it.  An image build
needs no buffer: :func:`lowered_program` hands the analysis a read-only
:class:`~repro.ir.arena.program.ArenaProgram` over the lowering, memoized
per program revision, so a program built under two configs is lowered
once and solved twice on the arena kernel.

Lowering runs the PVPG builder's one traversal
(:class:`~repro.core.pvpg_builder.PVPGBuilder`) with a column sink,
:class:`_ColumnSink`, whose flow handles *are* the integer flow ids, so no
object flow, object graph or flow-id map exists:

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

``filtering_enabled`` of filter flows is *not* encoded: it is a property
of the analysis config, reapplied when flows are inflated, which keeps the
frozen structure config-independent (one arena serves every config).
"""

from __future__ import annotations

import operator
import pickle
from itertools import accumulate
from typing import Dict, List, Optional, Set

from repro.core.pvpg import BranchKind
from repro.core.pvpg_builder import PVPGBuilder
from repro.ir.arena import schema
from repro.ir.arena.layout import BufferWriter
from repro.ir.arena.program import ArenaProgram, ProgramArena
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
from repro.ir.types import FieldDecl, TypeHierarchy
from repro.ir.values import ConstantExpr, ConstKind

_NONE = schema.NONE_ID


class _Strings:
    """Interning string table: ids in first-intern order."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.texts: List[str] = []

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = self._ids[text] = len(self.texts)
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
                 pairs: List[int], num_rows: int) -> None:
    """Store flat ``(row, value, row, value, ...)`` pairs as a CSR.

    ``sorted`` is stable, so every row keeps its values' insertion order.
    """
    rows, vals = pairs[0::2], pairs[1::2]
    counts = [0] * (num_rows + 1)
    for row in rows:
        counts[row + 1] += 1
    order = sorted(range(len(rows)), key=rows.__getitem__)
    columns[ptr_name] = list(accumulate(counts))
    columns[val_name] = list(map(vals.__getitem__, order))


#: Columns of one flow row, in the order of :attr:`_ColumnSink.flows`.
_FLOW_COLUMNS = ("flow_kind", "flow_label", "flow_method", "flow_aux1", "flow_aux2")


class _ColumnSink:
    """A :class:`~repro.core.pvpg_builder.FlowSink` writing arena columns.

    Handles are fids, handed out in registration order after the
    ``pred_on`` and field rows (:meth:`global_flow`).  Strings are interned
    label first, then payload, flow by flow.  Columns accumulate in flat
    lists (cheaper to extend than arrays) and become arrays when serialized.
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

    def store_flows(self, columns: _Columns) -> None:
        for index, name in enumerate(_FLOW_COLUMNS):
            columns[name] = self.flows[index::len(_FLOW_COLUMNS)]

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
    order in which the builder reports them; ``lower`` checks the
    prediction against the column sink's ``branch_ifs``.
    """
    ends = (cfg.blocks[name].end for name in cfg.reverse_postorder)
    return [end for end in ends if isinstance(end, If)]


def lower(program: Program) -> "LoweredArena":
    """Lower ``program`` into arena columns, in memory.

    No body is pickled, no fingerprint taken and no buffer written: the
    result points at the program's live hierarchy and method bodies.
    """
    strings = _Strings()
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
    methods = list(program.methods.values())
    cfgs = [ControlFlowGraph(method) for method in methods]
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
    # the traversal below, which must meet the ifs in this same order.
    branch_ifs: List[If] = []
    branch_cols: Dict[str, List[int]] = {name: [] for name in (
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

    entry_points = [strings.intern(name) for name in program.entry_points]

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
    columns["method_flow_lo"] = sink.flow_lo
    columns["method_flow_hi"] = sink.flow_hi
    sink.method_pred.store(columns, "method_pred_ptr", "method_pred_val")
    sink.method_param.store(columns, "method_param_ptr", "method_param_val")
    sink.method_ret.store(columns, "method_ret_ptr", "method_ret_val")
    sink.method_inv.store(columns, "method_inv_ptr", "method_inv_val")
    alloc_rows.store(columns, "method_alloc_ptr", "method_alloc_val")
    columns["method_br_ptr"] = br_ptr
    for name in ("br_kind", "br_then", "br_else", "br_block"):
        columns[name] = sink.branch_cols[name]
    for name, column in branch_cols.items():
        columns[name] = column

    columns["entry_points"] = entry_points

    sink.store_flows(columns)
    _store_pairs(columns, "use_ptr", "use_val", sink.uses, num_flows)
    _store_pairs(columns, "obs_ptr", "obs_val", sink.observers, num_flows)
    _store_pairs(columns, "ptgt_ptr", "ptgt_val", sink.pred_targets, num_flows)
    _store_pairs(columns, "pin_ptr", "pin_val", sink.predicates, num_flows)

    columns["const_kind"] = sink.const_kind
    columns["const_int"] = sink.const_int
    columns["const_type"] = sink.const_type
    for name, column in sink.cs_cols.items():
        columns[name] = column
    # cs_args_type shares cs_args_ptr (one name and one type per argument).
    sink.cs_args.store(columns, "cs_args_ptr", "cs_args_name")
    columns["cs_args_type"] = sink.cs_args_type
    sink.inv_args.store(columns, "inv_args_ptr", "inv_args_val")

    return LoweredArena(columns, strings.texts, program.hierarchy, methods,
                        getattr(program, "program_fingerprint", None))


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

    @property
    def strings(self) -> List[str]:
        """The string table, by string id."""
        return self._strings

    @property
    def fingerprint(self) -> ProgramFingerprint:
        """The fingerprint of the lowered program, taken on first use."""
        if self._fingerprint is None:
            self._fingerprint = ProgramFingerprint.of(Program(
                hierarchy=self.hierarchy,
                methods={method.qualified_name: method
                         for method in self.methods},
                entry_points=self.entry_point_names()))
        return self._fingerprint

    def method_blocks(self, mid: int) -> list:
        return self.methods[mid].blocks

    def to_bytes(self) -> bytes:
        return serialize(self)


def serialize(lowered: LoweredArena,
              fingerprint: Optional[ProgramFingerprint] = None) -> bytes:
    """Write a lowering as one arena buffer, bodies and fingerprint included.

    ``fingerprint`` is the lowered program's, when the caller has it
    (:func:`freeze` takes it through the program's memo); otherwise the
    lowering takes its own.  The section order is part of the bytes: the
    lowered columns in their order, with the pickled bodies after the
    allocation-site CSR, then the fingerprint and the string table.
    """
    if fingerprint is None:
        fingerprint = lowered.fingerprint
    writer = BufferWriter()
    for name, column in lowered.columns.items():
        writer.add_ints(name, column)
        if name == "method_alloc_val":
            blobs = [pickle.dumps(method.blocks, protocol=pickle.HIGHEST_PROTOCOL)
                     for method in lowered.methods]
            writer.add_ints("method_body_ptr",
                            accumulate(map(len, blobs), initial=0))
            writer.add_bytes("body_blob", b"".join(blobs))
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


def lowered_program(program: Program) -> ArenaProgram:
    """A read-only :class:`ArenaProgram` over ``program``'s lowering.

    The live hierarchy, methods and entry points, plus in-memory columns;
    :class:`~repro.core.analysis.SkipFlowAnalysis` solves it cold on the
    arena kernel.  Lowered at most once per :attr:`Program.revision`
    (:meth:`Program.memoized`), so every config built over an unchanged
    program shares one lowering.  An ``ArenaProgram`` is returned as is.
    """
    if isinstance(program, ArenaProgram):
        return program
    return program.memoized(_view)
