"""The column sink lowers every method into a well-formed arena.

``freeze`` runs the PVPG builder's one traversal with the column sink of
:mod:`repro.ir.arena.lowering`, whose flow handles are flow ids.  Here the
frozen buffer of a range of programs is checked against their IR: the fid
layout (fid 0 ``pred_on``, fids ``1..NF`` the fields, then each method's
contiguous range), the per-method parameter, invoke, return and branch
rows against the instructions, every build-time edge staying inside its
method, and the incoming-predicate CSR being exactly the transpose of the
predicate targets plus ``pred_on``'s per-method fan-out.  The freeze
goldens pin the bytes; these tests pin what the bytes mean.
"""

import pytest

from repro.fuzz.generator import generate_cases
from repro.ir.arena import freeze, open_program, schema
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import If, Invoke, Return
from repro.workloads.edits import build_edit_delta
from repro.workloads.generator import generate_benchmark
from tests.conftest import build_virtual_threads_program

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


def _row(arena, name, index):
    ptr = getattr(arena, f"{name}_ptr")
    val = getattr(arena, f"{name}_val")
    return list(val[ptr[index]:ptr[index + 1]])


def _instructions(method):
    """The body's invokes, returns and ifs, in block order."""
    invokes, returns, ifs = [], [], []
    for block in method.blocks:
        invokes.extend(statement for statement in block.statements
                       if isinstance(statement, Invoke))
        if isinstance(block.end, Return):
            returns.append(block.end)
        elif isinstance(block.end, If):
            ifs.append(block.end)
    return invokes, returns, ifs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_column_sink_lowers_a_well_formed_arena(name):
    program = PROGRAMS[name]()
    arena = open_program(freeze(program)).arena
    count = arena.num_flows

    assert list(arena.flow_kind[:1 + arena.num_fields]) == (
        [schema.K_PRED_ON] + [schema.K_FIELD] * arena.num_fields)
    assert _row(arena, "ptgt", 0) == []  # pred_on's fan-out is per method
    assert _row(arena, "pin", 0) == []

    incoming = {fid: [] for fid in range(count)}
    next_fid = 1 + arena.num_fields
    for mid, method in enumerate(program.methods.values()):
        assert arena.qualified_name(mid) == method.qualified_name
        lo, hi = arena.method_flow_lo[mid], arena.method_flow_hi[mid]
        assert lo == next_fid and hi > lo
        next_fid = hi
        assert all(arena.flow_method[fid] == mid for fid in range(lo, hi))
        for target in _row(arena, "method_pred", mid):
            assert lo <= target < hi
            incoming[target].append(0)

        params = _row(arena, "method_param", mid)
        assert len(params) == len(method.parameters)
        assert [arena.flow_aux1[fid] for fid in params] == list(
            range(len(params)))
        invokes, returns, ifs = _instructions(method)
        inv = _row(arena, "method_inv", mid)
        assert [arena.string(arena.cs_method_name[arena.flow_aux1[fid]])
                for fid in inv] == [invoke.method_name for invoke in invokes]
        rets = _row(arena, "method_ret", mid)
        assert len(rets) == len(returns)
        assert sorted(arena.flow_aux1[fid] for fid in rets) == sorted(
            int(end.value is None) for end in returns)
        branches = range(arena.method_br_ptr[mid], arena.method_br_ptr[mid + 1])
        assert sorted(arena.string(arena.br_then_label[row])
                      for row in branches) == sorted(
            end.then_label for end in ifs)
        for kind, row in ((schema.K_PARAMETER, params),
                          (schema.K_INVOKE, inv), (schema.K_RETURN, rets)):
            assert all(arena.flow_kind[fid] == kind for fid in row)

        for fid in range(lo, hi):
            for edges in ("use", "obs", "ptgt"):
                assert all(lo <= target < hi
                           for target in _row(arena, edges, fid)), edges
            for target in _row(arena, "ptgt", fid):
                incoming[target].append(fid)
    assert next_fid == count

    for fid in range(1, count):
        assert sorted(_row(arena, "pin", fid)) == sorted(incoming[fid])


def _method_flows(arena, mid):
    return range(arena.method_flow_lo[mid], arena.method_flow_hi[mid])


def test_no_phi_merge_takes_the_lazy_phi_paths():
    """The hand-written method really exercises collisions and dedup."""
    program = _no_phi_program()
    arena = open_program(freeze(program)).arena
    flows = _method_flows(arena, 0)
    lazy = {arena.string(arena.flow_label[fid]): fid for fid in flows
            if arena.flow_kind[fid] == schema.K_PHI}
    assert set(lazy) == {"phi:x", "phi:c0", "phi:c1"}
    phi_x = lazy["phi:x"]
    # Four predecessors, three distinct x flows: one use edge was a repeat.
    assert program.method("Main.pick").blocks[-1].begin.phis == ()
    feeding = [fid for fid in flows if phi_x in _row(arena, "use", fid)]
    assert len(feeding) == 3
    assert _row(arena, "method_ret", 0)[0] in _row(arena, "use", phi_x)
