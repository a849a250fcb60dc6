"""The column sink lowers exactly the graph the object sink builds.

``freeze`` runs the PVPG builder with a column sink that writes arena
columns directly (:mod:`repro.ir.arena.freeze`); the object solver runs the
same traversal with :class:`~repro.core.pvpg_builder.ObjectSink`.  Here
the object graph of every method is mapped through registration order
(fid 0 ``pred_on``, fids ``1..NF`` the fields, then each method's flows)
and compared with the frozen buffer: kinds, labels, owners, the four edge
CSRs, ``pred_on``'s per-method fan-out, the per-method flow lists, the aux
payloads and the branch records.
"""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.flows import FlowKind, PhiFlow
from repro.core.pvpg import ProgramPVPG
from repro.core.pvpg_builder import ObjectSink, PVPGBuilder
from repro.fuzz.generator import generate_cases
from repro.ir.arena import freeze, open_program, schema
from repro.ir.builder import ProgramBuilder
from repro.workloads.edits import build_edit_delta
from repro.workloads.generator import generate_benchmark
from tests.conftest import build_virtual_threads_program

NONE = schema.NONE_ID
_CASES = generate_cases(seed=11, count=6)


def _fuzz_program(index: int, edited: bool):
    script = _CASES[index]
    program = generate_benchmark(script.base)
    if edited:
        for step in script.steps:
            build_edit_delta(script.base, step).apply_to(program)
    return program


def _no_phi_program():
    """A merge with no explicit phis and four predecessors.

    Every predecessor redefines ``x`` or the constants through branch
    filters.  In reverse postorder the ``split`` side reaches the merge
    first, so its collision creates a phi flow lazily; then ``s2`` and
    ``s1`` both join the same ``x`` flow into that existing lazy phi, the
    second time as a duplicate use edge.
    """
    pb = ProgramBuilder()
    pb.declare_class("Main")
    mb = pb.method("Main", "pick", params=["int"], return_type="int",
                   is_static=True, param_names=["x"])
    x = mb.param(0)
    a = mb.assign_int(1)
    mb.if_lt(x, a, "same", "split")
    mb.label("same")
    b = mb.assign_int(2)
    mb.if_eq(a, b, "s1", "s2")
    mb.label("s1")
    mb.jump("done")
    mb.label("s2")
    mb.jump("done")
    mb.label("split")
    mb.if_eq(x, a, "eq", "ne")
    mb.label("eq")
    mb.jump("done")
    mb.label("ne")
    mb.jump("done")
    mb.merge("done")
    mb.return_(x)
    pb.finish_method(mb)
    pb.program.add_entry_point("Main.pick")
    return pb.program


PROGRAMS = {
    **{f"fuzz{i}": (lambda i=i: _fuzz_program(i, False)) for i in range(len(_CASES))},
    **{f"fuzz{i}-edited": (lambda i=i: _fuzz_program(i, True)) for i in range(2)},
    "virtual-threads": build_virtual_threads_program,
    "no-phi-merge": _no_phi_program,
}


def _object_graphs(program):
    """Every method's object graph, plus pred_on's targets per method."""
    pvpg = ProgramPVPG()
    builder = PVPGBuilder(ObjectSink(pvpg, AnalysisConfig.skipflow()))
    graphs, pred_rows = [], []
    for method in program.methods.values():
        before = len(pvpg.pred_on.predicate_targets)
        graphs.append(builder.build_method(method))
        pred_rows.append(pvpg.pred_on.predicate_targets[before:])
    return pvpg, graphs, pred_rows


def _row(arena, name, index):
    ptr = getattr(arena, f"{name}_ptr")
    val = getattr(arena, f"{name}_val")
    return list(val[ptr[index]:ptr[index + 1]])


def _expected_aux(flow, fid, arena):
    """``(aux1, aux2)`` with string ids decoded, per the schema's rules."""
    kind = flow.kind
    if kind is FlowKind.SOURCE:
        return ("const", flow.expr), NONE
    if kind is FlowKind.PARAMETER:
        return flow.index, ("str", flow.declared_type)
    if kind is FlowKind.FILTER_TYPE:
        return ("str", flow.type_name), int(flow.negated)
    if kind is FlowKind.FILTER_COMPARE:
        return schema.OP_INDEX[flow.op], fid(flow.observed)
    if kind in (FlowKind.LOAD_FIELD, FlowKind.STORE_FIELD):
        return ("str", flow.field_name), fid(flow.receiver)
    if kind is FlowKind.INVOKE:
        return ("callsite", flow), (NONE if flow.receiver is None
                                    else fid(flow.receiver))
    if kind is FlowKind.RETURN:
        return int(flow.artificial_on_enable is not None), NONE
    return NONE, NONE


def _check_aux(arena, column, index, expected, fid):
    actual = column[index]
    if not isinstance(expected, tuple):
        assert actual == expected
        return
    tag, payload = expected
    if tag == "str":
        assert arena.opt_string(actual) == payload
    elif tag == "const":
        assert schema.CONST_KINDS[arena.const_kind[actual]] is payload.kind
        assert arena.opt_string(arena.const_type[actual]) == payload.type_name
        if payload.int_value is not None:
            assert arena.const_int[actual] == payload.int_value
    else:  # a call-site row
        invoke = payload.invoke
        assert arena.string(arena.cs_method_name[actual]) == invoke.method_name
        assert (schema.INVOKE_KINDS[arena.cs_kind[actual]] is invoke.kind)
        assert _row(arena, "inv_args", actual) == [
            fid(flow) for flow in payload.argument_flows]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_column_sink_matches_object_sink(name):
    program = PROGRAMS[name]()
    pvpg, graphs, pred_rows = _object_graphs(program)
    arena = open_program(freeze(program)).arena

    fids = {pvpg.pred_on.uid: 0}
    next_fid = 1 + arena.num_fields
    for graph in graphs:
        for flow in graph.flows:
            fids[flow.uid] = next_fid
            next_fid += 1
    assert arena.num_flows == next_fid

    def fid(flow):
        return fids[flow.uid]

    def fid_row(flows):
        return [fid(flow) for flow in flows]

    assert list(arena.flow_kind[:1 + arena.num_fields]) == (
        [schema.K_PRED_ON] + [schema.K_FIELD] * arena.num_fields)
    assert _row(arena, "ptgt", 0) == []  # pred_on's fan-out is per method
    assert _row(arena, "pin", 0) == []

    for mid, graph in enumerate(graphs):
        assert arena.qualified_name(mid) == graph.qualified_name
        assert arena.method_flow_lo[mid] == fid(graph.flows[0])
        assert arena.method_flow_hi[mid] == fid(graph.flows[-1]) + 1
        assert _row(arena, "method_pred", mid) == fid_row(pred_rows[mid])
        assert _row(arena, "method_param", mid) == fid_row(graph.parameter_flows)
        assert _row(arena, "method_ret", mid) == fid_row(graph.return_flows)
        assert _row(arena, "method_inv", mid) == fid_row(graph.invoke_flows)

        records = range(arena.method_br_ptr[mid], arena.method_br_ptr[mid + 1])
        assert len(records) == len(graph.branch_records)
        for index, record in zip(records, graph.branch_records):
            assert schema.BRANCH_KINDS[arena.br_kind[index]] is record.kind
            assert arena.br_then[index] == fid(record.then_predicate)
            assert arena.br_else[index] == fid(record.else_predicate)
            assert arena.br_block[index] == fid(record.block_predicate)
            assert (arena.string(arena.br_then_label[index])
                    == record.instruction.then_label)

        for flow in graph.flows:
            index = fid(flow)
            assert schema.FLOW_KINDS[arena.flow_kind[index]] is flow.kind
            assert arena.string(arena.flow_label[index]) == flow.label
            assert arena.flow_method[index] == mid
            assert _row(arena, "use", index) == fid_row(flow.uses)
            assert _row(arena, "obs", index) == fid_row(flow.observers)
            assert _row(arena, "ptgt", index) == fid_row(flow.predicate_targets)
            assert _row(arena, "pin", index) == fid_row(flow.predicates)
            aux1, aux2 = _expected_aux(flow, fid, arena)
            _check_aux(arena, arena.flow_aux1, index, aux1, fid)
            _check_aux(arena, arena.flow_aux2, index, aux2, fid)


def test_no_phi_merge_takes_the_lazy_phi_paths():
    """The hand-written method really exercises collisions and dedup."""
    program = _no_phi_program()
    _, graphs, _ = _object_graphs(program)
    (graph,) = graphs
    lazy = [flow for flow in graph.flows if isinstance(flow, PhiFlow)]
    assert {flow.label for flow in lazy} == {"phi:x", "phi:c0", "phi:c1"}
    phi_x = next(flow for flow in lazy if flow.label == "phi:x")
    # Four predecessors, three distinct x flows: one use edge was a repeat.
    assert graph.method.blocks[-1].begin.phis == ()
    feeding = [flow for flow in graph.flows if phi_x in flow.uses]
    assert len(feeding) == 3
    assert graph.return_flows[0] in phi_x.uses
