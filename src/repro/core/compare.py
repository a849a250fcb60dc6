"""The ``Compare`` function of Appendix C.

``compare_states(op, vl, vr)`` returns the content of ``vl`` filtered with
respect to the comparison ``vl <op> vr``.  The cases follow the paper's
definition, with one soundness guard documented below:

1. If either operand is empty the result is empty (both operands are needed
   to perform the filtering).
2. ``=`` with ``Any`` on either side returns the lower of the two operands.
3. ``=`` without ``Any`` is the intersection.
4. ``≠`` is the set difference — applied only when the right operand is a
   singleton (a single constant, a single type, or ``null``).  The paper's
   formal definition subtracts arbitrary sets, which is not sound when the
   right operand can take several values (``x ≠ y`` does not exclude values
   that ``y`` merely *may* have); restricting to singletons covers every use
   in the paper (null checks, boolean and integer constants) and stays sound.
5. Any other operator with ``Any`` on either side cannot filter and returns
   the left operand unchanged.
6. Relational operators on two known constants keep the left value only when
   the comparison holds.

``Compare`` is a *filter*: its result is always ``<=`` the left operand in
the lattice, so it composes with the solver's monotonicity argument — and
with the saturation cutoff, since filtering a saturated (sentinel-top)
state can only shrink it, never grow it.  See ``docs/architecture.md`` for
how saturation interacts with filtering precision.
"""

from __future__ import annotations

from repro.ir.instructions import CompareOp
from repro.lattice.value_state import ValueState


def _is_singleton(state: ValueState) -> bool:
    return len(state) == 1 and not state.has_any


def _relational_holds(op: CompareOp, left: int, right: int) -> bool:
    if op is CompareOp.LT:
        return left < right
    if op is CompareOp.LE:
        return left <= right
    if op is CompareOp.GT:
        return left > right
    if op is CompareOp.GE:
        return left >= right
    raise ValueError(f"unexpected relational operator {op}")


def _equality_filter(vl: ValueState, vr: ValueState) -> ValueState:
    if vl.has_any or vr.has_any:
        # minL(vl, vr): whichever operand carries more information.
        if vl.has_any and vr.has_any:
            return vl
        return vr if vl.has_any else vl
    types = vl.types & vr.types
    primitive = vl.primitive if (vl.primitive is not None and vl.primitive == vr.primitive) else None
    return ValueState.of(types=types, primitive=primitive)


def _inequality_filter(vl: ValueState, vr: ValueState) -> ValueState:
    if not _is_singleton(vr):
        # Soundness guard: only a singleton right operand justifies removal.
        return vl
    types = vl.types - vr.types
    primitive = vl.primitive
    if primitive is not None and not vl.has_any and primitive == vr.primitive:
        primitive = None
    return ValueState.of(types=types, primitive=primitive)


def _relational_filter(op: CompareOp, vl: ValueState, vr: ValueState) -> ValueState:
    if vl.has_any or vr.has_any:
        return vl
    left = vl.constant_value
    right = vr.constant_value
    if left is None or right is None:
        # Relational operators are only defined on primitives; reference parts
        # (which should not occur here in well-typed programs) pass through.
        return vl
    if _relational_holds(op, left, right):
        return vl
    return vl.with_primitive(None).only_types() if vl.types else ValueState.empty()


def compare_states(op: CompareOp, vl: ValueState, vr: ValueState) -> ValueState:
    """Filter ``vl`` with respect to ``vl <op> vr`` (Appendix C, ``Compare``)."""
    if vl.is_empty or vr.is_empty:
        return ValueState.empty()
    if op is CompareOp.EQ:
        return _equality_filter(vl, vr)
    if op is CompareOp.NE:
        return _inequality_filter(vl, vr)
    return _relational_filter(op, vl, vr)
