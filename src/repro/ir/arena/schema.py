"""Shared id encodings of the arena schema (enum <-> integer tables).

Both the freeze pass (:mod:`repro.ir.arena.lowering`) and the attach-side
views (:mod:`repro.ir.arena.program`, the arena kernel) need the same
integer encodings for the IR's enums and the flow-kind discriminator.  The
encodings are positional over the enums' declaration order, which is part
of the schema: reordering an enum means bumping
:data:`~repro.ir.arena.layout.ARENA_VERSION`.
"""

from __future__ import annotations

from repro.core.flows import FlowKind
from repro.core.pvpg import BranchKind
from repro.ir.instructions import CompareOp, InvokeKind
from repro.ir.values import ConstKind

# Flow kinds, in FlowKind declaration order.
FLOW_KINDS = tuple(FlowKind)
KIND_INDEX = {kind: index for index, kind in enumerate(FLOW_KINDS)}

K_PRED_ON = KIND_INDEX[FlowKind.PRED_ON]
K_SOURCE = KIND_INDEX[FlowKind.SOURCE]
K_PARAMETER = KIND_INDEX[FlowKind.PARAMETER]
K_PHI = KIND_INDEX[FlowKind.PHI]
K_PHI_PRED = KIND_INDEX[FlowKind.PHI_PRED]
K_FILTER_TYPE = KIND_INDEX[FlowKind.FILTER_TYPE]
K_FILTER_COMPARE = KIND_INDEX[FlowKind.FILTER_COMPARE]
K_LOAD_FIELD = KIND_INDEX[FlowKind.LOAD_FIELD]
K_STORE_FIELD = KIND_INDEX[FlowKind.STORE_FIELD]
K_INVOKE = KIND_INDEX[FlowKind.INVOKE]
K_RETURN = KIND_INDEX[FlowKind.RETURN]
K_FIELD = KIND_INDEX[FlowKind.FIELD]

# IR enums, positionally encoded.
CONST_KINDS = tuple(ConstKind)
CONST_INDEX = {kind: index for index, kind in enumerate(CONST_KINDS)}

INVOKE_KINDS = tuple(InvokeKind)
INVOKE_INDEX = {kind: index for index, kind in enumerate(INVOKE_KINDS)}

COMPARE_OPS = tuple(CompareOp)
OP_INDEX = {op: index for index, op in enumerate(COMPARE_OPS)}

BRANCH_KINDS = tuple(BranchKind)
BRANCH_INDEX = {kind: index for index, kind in enumerate(BRANCH_KINDS)}

# Class flag bits of the ``type_flags`` column.
TYPE_FLAG_INTERFACE = 1
TYPE_FLAG_ABSTRACT = 2

#: Sentinel for "no value" in id columns (string ids, flow ids, rows).
NONE_ID = -1
