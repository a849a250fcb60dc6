"""Construction of predicated value propagation graphs (Appendix B.4).

The builder performs one sequential pass over a method: basic blocks are
visited in reverse postorder and the instructions of each block top to bottom.
Per-block state consists of

* ``m`` — a mapping from SSA variable names to the flows currently
  representing them, and
* ``pred`` — the most recently encountered predicate flow (the always-enabled
  ``pred_on`` at the start of the entry block, a fresh ``phi_pred`` flow at
  every merge, the invoke flow after every call, and the filtering flows of a
  condition inside the branches of an ``if``).

Loops are supported through the explicit phi instructions of merge blocks
(the frontend and the builder always emit them); for hand-written IR without
explicit phis the collision rule of the paper's ``propagate`` function creates
phi flows lazily, which is only sound for acyclic control flow.

The traversal does not create flows itself: it hands every flow and edge to
the arena lowering's column sink (``_ColumnSink`` in
:mod:`repro.ir.arena.lowering`), whose flow handles are integer flow ids and
which writes the arena's columns directly; the block states keep those ids.
Every flow constructor except ``phi_pred`` takes the predicate flow guarding
the new flow and adds that predicate edge itself (only phi_preds receive
``add_predicate`` edges), and the ``add_*`` edge methods ignore an edge that
already exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Set

from repro.core.pvpg import BranchKind
from repro.ir.blocks import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import (
    Assign,
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
)
from repro.ir.method import Method
from repro.ir.values import ConstKind, Value

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.ir.arena.lowering import _ColumnSink

#: A flow handle issued by the sink: an integer flow id.
Handle = int

#: Read once per assignment; enum member lookups are slow attribute reads.
_NULL = ConstKind.NULL


class PVPGBuildError(Exception):
    """Raised when a method body cannot be translated into a PVPG."""


@dataclass
class _BlockState:
    """Per-block traversal state: variable map and current predicate."""

    m: Dict[str, Handle] = field(default_factory=dict)
    pred: Optional[Handle] = None


class PVPGBuilder:
    """Builds the PVPG of individual methods, one at a time, into ``sink``."""

    def __init__(self, sink: "_ColumnSink") -> None:
        self.sink = sink
        # Per-method traversal state, reset by build_method.
        self._qualified = ""
        self._lazy_phis: Set[Handle] = set()
        self._null_sources: Set[Handle] = set()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def build_method(self, method: Method,
                     cfg: Optional[ControlFlowGraph] = None) -> Any:
        """Build one method through the sink; returns ``sink.end_method()``.

        ``cfg`` reuses an already computed control-flow graph of ``method``.
        """
        sink = self.sink
        if cfg is None:
            cfg = ControlFlowGraph(method)
        sink.begin_method(method)
        self._qualified = method.qualified_name
        self._lazy_phis = set()
        self._null_sources = set()
        order = cfg.reverse_postorder
        states: Dict[str, _BlockState] = {name: _BlockState() for name in order}

        # Pre-create phi_pred and phi flows for every merge block so that both
        # forward and backward jumps can link against them.
        for name in order:
            block = cfg.blocks[name]
            if block.is_merge:
                state = states[name]
                merge = block.begin
                assert isinstance(merge, Merge)
                phi_pred = sink.phi_pred(f"phi_pred@{name}")
                state.pred = phi_pred
                for phi in merge.phis:
                    state.m[phi.result.name] = sink.phi(
                        phi_pred, f"phi:{phi.result.name}")

        for name in order:
            block = cfg.blocks[name]
            state = states[name]
            if block.is_entry:
                state.pred = sink.pred_on
                self._process_start(block.begin, state)
            if state.pred is None:
                # A label block whose predecessor has not set a predicate would
                # indicate invalid IR; fall back to pred_on to stay sound.
                state.pred = sink.pred_on
            for statement in block.statements:
                self._process_statement(statement, state)
            self._process_end(block, state, states, cfg)

        return sink.end_method()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _lookup(self, state: _BlockState, value: Value) -> Handle:
        flow = state.m.get(value.name)
        if flow is None:
            raise PVPGBuildError(
                f"value {value.name!r} has no flow in {self._qualified} "
                "(use before definition or missing phi)"
            )
        return flow

    # ------------------------------------------------------------------ #
    # Instructions
    # ------------------------------------------------------------------ #
    def _process_start(self, start: Start, state: _BlockState) -> None:
        sink = self.sink
        for index, param in enumerate(start.params):
            state.m[param.name] = sink.parameter(
                state.pred, f"param:{param.name}", index, param.declared_type)

    def _process_statement(self, statement, state: _BlockState) -> None:
        sink = self.sink
        if isinstance(statement, Assign):
            expr = statement.expr
            flow = sink.source(state.pred, str(expr), expr)
            if expr.kind is _NULL:
                self._null_sources.add(flow)
            state.m[statement.result.name] = flow
        elif isinstance(statement, LoadField):
            receiver = self._lookup(state, statement.receiver)
            flow = sink.load_field(state.pred, f"load:{statement.field_name}",
                                   statement.field_name, receiver)
            sink.add_observer(receiver, flow)
            state.m[statement.result.name] = flow
        elif isinstance(statement, StoreField):
            receiver = self._lookup(state, statement.receiver)
            value = self._lookup(state, statement.value)
            flow = sink.store_field(state.pred, f"store:{statement.field_name}",
                                    statement.field_name, receiver)
            sink.add_use(value, flow)
            sink.add_observer(receiver, flow)
        elif isinstance(statement, Invoke):
            self._process_invoke(statement, state)
        else:
            raise PVPGBuildError(f"unsupported statement {statement!r}")

    def _process_invoke(self, invoke: Invoke, state: _BlockState) -> None:
        sink = self.sink
        receiver_flow: Optional[Handle] = None
        if invoke.receiver is not None:
            receiver_flow = self._lookup(state, invoke.receiver)
        argument_flows = [self._lookup(state, value)
                          for value in invoke.all_arguments]
        flow = sink.invoke(state.pred, f"invoke:{invoke.method_name}", invoke,
                           receiver_flow, argument_flows)
        if receiver_flow is not None:
            sink.add_observer(receiver_flow, flow)
        if invoke.result is not None:
            state.m[invoke.result.name] = flow
        # Every method invocation is a predicate for the following statements
        # in the block (Section 3, "Method Invocations as Predicates").
        state.pred = flow

    def _process_end(self, block: BasicBlock, state: _BlockState,
                     states: Dict[str, _BlockState], cfg: ControlFlowGraph) -> None:
        end = block.end
        if isinstance(end, Return):
            flow = self.sink.return_(state.pred, "return", end.value is None)
            if end.value is not None:
                self.sink.add_use(self._lookup(state, end.value), flow)
        elif isinstance(end, Jump):
            self._propagate(state, end, cfg.blocks[end.target], states[end.target])
        elif isinstance(end, If):
            then_pred = self._init_block(
                state, end.condition, states[end.then_label])
            else_pred = self._init_block(
                state, _invert(end.condition), states[end.else_label])
            self.sink.branch(end, self._classify_branch(end.condition, state),
                             then_pred, else_pred, state.pred)
        elif end is None:
            raise PVPGBuildError(
                f"block {block.name!r} in {self._qualified} is not terminated")
        else:
            raise PVPGBuildError(f"unsupported block end {end!r}")

    # ------------------------------------------------------------------ #
    # Control-flow transfer: jumps (propagate) and ifs (initBlock)
    # ------------------------------------------------------------------ #
    def _propagate(self, state: _BlockState, jump: Jump, target_block: BasicBlock,
                   target_state: _BlockState) -> None:
        sink = self.sink
        merge = target_block.begin
        assert isinstance(merge, Merge)
        # The end of this block being reachable makes the merge reachable.
        sink.add_predicate(state.pred, target_state.pred)
        # Explicit phi operands contributed by this jump.
        for index, phi in enumerate(merge.phis):
            if index >= len(jump.phi_arguments):
                continue
            source = self._lookup(state, jump.phi_arguments[index])
            sink.add_use(source, target_state.m[phi.result.name])
        # Remaining variables: inherit, or create a phi flow on collision.
        lazy_phis = self._lazy_phis
        for name, flow in state.m.items():
            existing = target_state.m.get(name)
            if existing is None:
                target_state.m[name] = flow
            elif existing != flow:
                if existing in lazy_phis:
                    sink.add_use(flow, existing)
                else:
                    phi_flow = sink.phi(target_state.pred, f"phi:{name}")
                    sink.add_use(existing, phi_flow)
                    sink.add_use(flow, phi_flow)
                    target_state.m[name] = phi_flow
                    lazy_phis.add(phi_flow)

    def _init_block(self, state: _BlockState, condition,
                    target_state: _BlockState) -> Handle:
        """Initialize one branch of an ``if``; returns the branch predicate flow."""
        # Label blocks have a single predecessor: inherit the whole variable map.
        target_state.m.update(state.m)
        if isinstance(condition, InstanceOfCondition):
            return self._init_unary(state, condition, target_state)
        if isinstance(condition, Condition):
            return self._init_binary(state, condition, target_state)
        raise PVPGBuildError(f"unsupported condition {condition!r}")

    def _init_unary(self, state: _BlockState, condition: InstanceOfCondition,
                    target_state: _BlockState) -> Handle:
        sink = self.sink
        tested = self._lookup(state, condition.value)
        flow = sink.filter_type(state.pred, str(condition), condition.type_name,
                                condition.negated)
        sink.add_use(tested, flow)
        target_state.m[condition.value.name] = flow
        target_state.pred = flow
        return flow

    def _init_binary(self, state: _BlockState, condition: Condition,
                     target_state: _BlockState) -> Handle:
        sink = self.sink
        left = self._lookup(state, condition.left)
        right = self._lookup(state, condition.right)

        left_filter = sink.filter_compare(state.pred, str(condition),
                                          condition.op, right)
        sink.add_use(left, left_filter)
        sink.add_observer(right, left_filter)
        target_state.m[condition.left.name] = left_filter

        flipped = flip_compare_op(condition.op)
        right_filter = sink.filter_compare(
            left_filter, f"{condition.right} {flipped} {condition.left}",
            flipped, left)
        sink.add_use(right, right_filter)
        sink.add_observer(left, right_filter)
        target_state.m[condition.right.name] = right_filter

        target_state.pred = right_filter
        return right_filter

    # ------------------------------------------------------------------ #
    # Metric classification
    # ------------------------------------------------------------------ #
    def _classify_branch(self, condition, state: _BlockState) -> BranchKind:
        if isinstance(condition, InstanceOfCondition):
            return BranchKind.TYPE_CHECK
        assert isinstance(condition, Condition)
        for operand in (condition.left, condition.right):
            if state.m.get(operand.name) in self._null_sources:
                return BranchKind.NULL_CHECK
        return BranchKind.PRIMITIVE_CHECK


def _invert(condition):
    """``inv(c)``: the condition guarding the else branch."""
    return condition.inverted()
