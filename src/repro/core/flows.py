"""Flows: the vertices of a predicated value propagation graph.

The arena kernel keeps flows as rows of flat tables; these objects are the
view it inflates for consumers that walk a graph (the audits, ``repro
pvpg``).  Each flow carries

* a *value state* (``state``), the conservative over-approximation of the
  values the underlying code element can hold at runtime — this is the
  ``VSout`` of Appendix C;
* an *input state* (``input_state``), the join of everything delivered over
  incoming use edges (``VSin``);
* an ``enabled`` bit — flows are disabled until their predicate fires
  (Predicate rule);
* outgoing ordered edge sets: ``uses`` (use edges), ``observers`` (observe
  edges) and ``predicate_targets`` (predicate edges), plus the incoming
  ``predicates``.  Each is an insertion-ordered ``dict`` keyed by
  the other flow (values are ``None``), so iteration follows addition order
  and a duplicate edge is a no-op.  ``uses`` is allocated with the flow;
  the other three start as the shared immutable :data:`NO_EDGES` and get
  their own dict on the first add, so a flow that never gains an observer
  or a predicate target (most flows, after a solve) never allocates one.

Specialised subclasses add the flow-specific data (the constant of a source,
the condition of a filter, the call site of an invoke, ...) and implement
:meth:`Flow.transfer`, the per-flow output function (TypeCheck / Cond /
PassThrough rules).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.compare import compare_states
from repro.ir.instructions import CompareOp, Invoke
from repro.ir.types import FieldDecl, TypeHierarchy
from repro.ir.values import ConstantExpr, ConstKind
from repro.lattice.typeset import filter_instanceof
from repro.lattice.value_state import ValueState


class FlowKind(enum.Enum):
    """Discriminator for the different flow vertices of a PVPG."""

    PRED_ON = "pred_on"
    SOURCE = "source"
    PARAMETER = "parameter"
    PHI = "phi"
    PHI_PRED = "phi_pred"
    FILTER_TYPE = "filter_type"
    FILTER_COMPARE = "filter_compare"
    LOAD_FIELD = "load_field"
    STORE_FIELD = "store_field"
    INVOKE = "invoke"
    RETURN = "return"
    FIELD = "field"


#: Flow uids: unique per process, hence within any one PVPG (a fork keeps
#: its original's uids, which no later flow reuses).
_flow_ids = itertools.count()


#: The shared empty edge set of the lazily allocated edge kinds.  It is an
#: immutable tuple, so a flow can never add to it in place and leak an edge
#: into every other flow that still shares it.
NO_EDGES: Tuple[()] = ()

#: An ordered edge set: target flow -> ``None`` in addition order, or the
#: shared :data:`NO_EDGES` until the first edge of a lazy kind is added.
EdgeSet = Union[Dict["Flow", None], Tuple[()]]


class Flow:
    """Base class of all PVPG vertices."""

    kind: FlowKind = FlowKind.SOURCE

    __slots__ = (
        "uid",
        "label",
        "method",
        "state",
        "input_state",
        "enabled",
        "in_worklist",
        "in_link_queue",
        "saturated",
        "uses",
        "observers",
        "predicate_targets",
        "predicates",
    )

    def __init__(self, label: str, method: Optional[str] = None):
        self.uid: int = next(_flow_ids)
        self.label = label
        self.method = method
        self.state: ValueState = ValueState.empty()
        self.input_state: ValueState = ValueState.empty()
        self.enabled: bool = False
        # Intrusive solver flags: membership bits for the worklist and the
        # invoke-link queue (cheaper than side sets of flow ids), and the
        # saturation mark of the optional megamorphic-flow cutoff.
        self.in_worklist: bool = False
        self.in_link_queue: bool = False
        self.saturated: bool = False
        # Ordered edge sets (module docstring).  Dict membership keeps the
        # duplicate-edge checks O(1) even where an edge kind grows large
        # (pred_on predicates every method entry, field flows feed every
        # load site).
        self.uses: Dict["Flow", None] = {}
        self.observers: EdgeSet = NO_EDGES
        self.predicate_targets: EdgeSet = NO_EDGES
        self.predicates: EdgeSet = NO_EDGES

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    # Re-storing an existing key leaves its position alone, so each add is
    # a single dict store and a duplicate edge is a no-op.
    def add_use(self, target: "Flow") -> None:
        """``self ⇝use target``."""
        self.uses[target] = None

    def has_use(self, target: "Flow") -> bool:
        return target in self.uses

    def add_observer(self, target: "Flow") -> None:
        """``self ⇝obs target``."""
        if self.observers is NO_EDGES:
            self.observers = {}
        self.observers[target] = None

    def add_predicate_target(self, target: "Flow") -> None:
        """``self ⇝pred target``, plus the back-edge in ``target.predicates``."""
        if self.predicate_targets is NO_EDGES:
            self.predicate_targets = {}
        self.predicate_targets[target] = None
        if target.predicates is NO_EDGES:
            target.predicates = {}
        target.predicates[self] = None

    # ------------------------------------------------------------------ #
    # Transfer function (VSin -> VSout)
    # ------------------------------------------------------------------ #
    def transfer(self, hierarchy: TypeHierarchy) -> ValueState:
        """Compute the output contribution from the accumulated input state.

        The default is the PassThrough rule; filter flows override this.
        """
        return self.input_state

    #: Value joined into the state when the flow becomes enabled even though it
    #: has no incoming use edges (``pred_on``, phi-pred flows, void returns).
    artificial_on_enable: Optional[ValueState] = None

    def __repr__(self) -> str:
        scope = f"{self.method}::" if self.method else ""
        return f"<{self.kind.value} {scope}{self.label} #{self.uid}>"


class PredOnFlow(Flow):
    """The always-enabled predicate ``pred_on`` (one per analysis run)."""

    kind = FlowKind.PRED_ON
    __slots__ = ()
    artificial_on_enable = ValueState.of_int(1)

    def __init__(self) -> None:
        super().__init__("pred_on", None)


class SourceFlow(Flow):
    """A flow created for a ``v <- e`` assignment (Source rule)."""

    kind = FlowKind.SOURCE
    __slots__ = ("expr",)

    def __init__(self, label: str, method: str, expr: ConstantExpr):
        super().__init__(label, method)
        self.expr = expr

    def source_state(self, track_primitives: bool) -> ValueState:
        """The value produced by the expression once the flow is enabled."""
        if self.expr.kind is ConstKind.INT:
            if track_primitives:
                return ValueState.of_int(self.expr.int_value)
            return ValueState.any_primitive()
        if self.expr.kind is ConstKind.ANY:
            return ValueState.any_primitive()
        if self.expr.kind is ConstKind.NEW:
            return ValueState.of_type(self.expr.type_name)
        return ValueState.null()


class ParameterFlow(Flow):
    """A formal parameter of a method (values arrive through linking)."""

    kind = FlowKind.PARAMETER
    __slots__ = ("index", "declared_type")

    def __init__(self, label: str, method: str, index: int, declared_type: Optional[str]):
        super().__init__(label, method)
        self.index = index
        self.declared_type = declared_type


class PhiFlow(Flow):
    """Joins the values of the incoming branches at a control-flow merge."""

    kind = FlowKind.PHI
    __slots__ = ()


class PhiPredFlow(Flow):
    """Joins the predicates of the incoming branches at a control-flow merge.

    Enabled as soon as *any* incoming predicate is enabled with a non-empty
    state; carries an artificial non-empty value so that it can in turn act
    as the predicate of the following block.
    """

    kind = FlowKind.PHI_PRED
    __slots__ = ()
    artificial_on_enable = ValueState.of_int(1)


class FilterTypeFlow(Flow):
    """A filtering flow for an ``instanceof`` (or negated) type check."""

    kind = FlowKind.FILTER_TYPE
    __slots__ = ("type_name", "negated", "filtering_enabled")

    def __init__(self, label: str, method: str, type_name: str, negated: bool,
                 filtering_enabled: bool = True):
        super().__init__(label, method)
        self.type_name = type_name
        self.negated = negated
        self.filtering_enabled = filtering_enabled

    def transfer(self, hierarchy: TypeHierarchy) -> ValueState:
        if not self.filtering_enabled:
            return self.input_state
        return filter_instanceof(self.input_state, hierarchy, self.type_name, self.negated)


class FilterCompareFlow(Flow):
    """A filtering flow for a binary comparison (Cond rule).

    The flow receives the tested operand over its use edge and *observes* the
    other operand; its output is ``Compare(op, VSin, VS(observed))``.
    """

    kind = FlowKind.FILTER_COMPARE
    __slots__ = ("op", "observed", "filtering_enabled")

    def __init__(self, label: str, method: str, op: CompareOp,
                 observed: Optional[Flow], filtering_enabled: bool = True):
        super().__init__(label, method)
        self.op = op
        self.observed = observed
        self.filtering_enabled = filtering_enabled

    def transfer(self, hierarchy: TypeHierarchy) -> ValueState:
        if not self.filtering_enabled:
            return self.input_state
        observed_state = self.observed.state if self.observed is not None else ValueState.empty()
        return compare_states(self.op, self.input_state, observed_state)


class LoadFieldFlow(Flow):
    """A ``v <- r.x`` flow; observes the receiver to link field flows lazily."""

    kind = FlowKind.LOAD_FIELD
    __slots__ = ("field_name", "receiver")

    def __init__(self, label: str, method: str, field_name: str, receiver: Flow):
        super().__init__(label, method)
        self.field_name = field_name
        self.receiver = receiver


class StoreFieldFlow(Flow):
    """A ``r.x <- v`` flow; observes the receiver to link field flows lazily."""

    kind = FlowKind.STORE_FIELD
    __slots__ = ("field_name", "receiver")

    def __init__(self, label: str, method: str, field_name: str, receiver: Flow):
        super().__init__(label, method)
        self.field_name = field_name
        self.receiver = receiver


class InvokeFlow(Flow):
    """A method invocation; also represents the returned value in the caller."""

    kind = FlowKind.INVOKE
    __slots__ = ("invoke", "receiver", "argument_flows", "linked_callees")

    def __init__(self, label: str, method: str, invoke: Invoke,
                 receiver: Optional[Flow], argument_flows: List[Flow]):
        super().__init__(label, method)
        self.invoke = invoke
        self.receiver = receiver
        self.argument_flows = list(argument_flows)
        #: Qualified names of callees already linked at this call site.
        self.linked_callees: Set[str] = set()

    @property
    def is_virtual(self) -> bool:
        return self.receiver is not None


class ReturnFlow(Flow):
    """The ``return`` of a method; linked back to every calling invoke flow."""

    kind = FlowKind.RETURN
    __slots__ = ("artificial_on_enable",)

    def __init__(self, label: str, method: str, returns_void: bool):
        super().__init__(label, method)
        # "A method with a void return type still returns the predicate of the
        # return instruction as an artificial value" (Section 3).
        self.artificial_on_enable = ValueState.any_primitive() if returns_void else None


class FieldFlow(Flow):
    """The program-wide flow of one declared field (field-sensitive heap)."""

    kind = FlowKind.FIELD
    __slots__ = ("declaration",)

    def __init__(self, declaration: FieldDecl):
        super().__init__(declaration.qualified_name, None)
        self.declaration = declaration
        # Field flows are not guarded by any predicate; they are enabled from
        # the start and become non-empty only when some store writes to them.
        self.enabled = True
