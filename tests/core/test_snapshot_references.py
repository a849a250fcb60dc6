"""Snapshot format v4: the program's IR is stored by reference.

A persisted :class:`~repro.core.state.SolverState` carries methods by
qualified name and invoke / branch instructions by their position in the
method body; :meth:`SolverState.from_bytes` resolves them against the
program it is given.  The contract under test:

* the pickled payload holds no ``Method``, ``BasicBlock`` or instruction
  object (a restricted unpickler refuses them);
* restored flows and branch records hold the program's *own* objects,
  whether the state came from the object solver or was inflated by the
  arena kernel (whose flows hold value-equal copies);
* a referenced method that is missing from the program, or changed,
  raises :class:`SolverStateError` naming it;
* ``fork`` keeps direct references.
"""

import enum
import io
import pickle

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.state import SnapshotMismatchError, SolverState, SolverStateError
from repro.ir.arena import ProgramArena, freeze, open_program
from repro.ir.blocks import BasicBlock
from repro.ir.instructions import Invoke
from repro.ir.method import Method
from repro.lang import compile_source
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)

SPEC = BenchmarkSpec(
    name="refs-wide", suite="test", core_methods=20,
    guarded_modules=(GuardedModuleSpec("boolean_flag", 4),
                     GuardedModuleSpec("instanceof_flag", 4)),
    hierarchies=(HierarchySpec(depth=2, fanout=4, call_sites=3),))

SOURCE = """
class Base { int run() { return 1; } }
class Impl extends Base { int run() { return 2; } }
class Main {
    static void main() {
        Base b = new Impl();
        b.run();
    }
}
"""


class _NoIRUnpickler(pickle.Unpickler):
    """Refuses every class of the program's IR; records what it loaded."""

    def __init__(self, blob: bytes) -> None:
        super().__init__(io.BytesIO(blob))
        self.loaded = set()

    def find_class(self, module, name):
        cls = super().find_class(module, name)
        if isinstance(cls, type) and (
                issubclass(cls, (Method, BasicBlock))
                or (module == "repro.ir.instructions"
                    and not issubclass(cls, enum.Enum))):
            raise pickle.UnpicklingError(f"snapshot carries IR: {module}.{name}")
        self.loaded.add(f"{module}.{name}")
        return cls


def _solved(program):
    return SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()


def _programs():
    """A plain program (object solver) and an attached one (arena kernel)."""
    plain = generate_benchmark(SPEC)
    attached = open_program(freeze(generate_benchmark(SPEC)))
    return {"object": plain, "arena": attached}


@pytest.fixture(params=["object", "arena"])
def solved(request):
    program = _programs()[request.param]
    result = _solved(program)
    assert result.kernel_ran == request.param
    return program, result.solver_state


def test_payload_holds_no_ir_objects(solved):
    program, state = solved
    unpickler = _NoIRUnpickler(state.to_bytes(program))
    payload = unpickler.load()
    assert payload["snapshot_version"] == 4
    # The refusal is live: value payloads and the stamp did load.
    assert "repro.ir.delta.ProgramFingerprint" in unpickler.loaded
    assert any(name.startswith("repro.lattice.") for name in unpickler.loaded)
    invokes = sum(len(record["invokes"]) for record in payload["methods"])
    branches = sum(len(record["branch_records"]) for record in payload["methods"])
    assert invokes and branches


def test_restored_ir_is_the_programs_own(solved, monkeypatch):
    program, state = solved
    blob = state.to_bytes(program)
    decoded = []
    method_blocks = ProgramArena.method_blocks

    def spy(arena, mid):
        decoded.append(arena.qualified_name(mid))
        return method_blocks(arena, mid)

    monkeypatch.setattr(ProgramArena, "method_blocks", spy)
    restored = SolverState.from_bytes(blob, program)
    # Resolving decodes referenced bodies only, each once.
    assert set(decoded) <= set(restored.pvpg.methods)
    assert len(decoded) == len(set(decoded))
    assert restored.pvpg.methods.keys() == state.pvpg.methods.keys()
    invokes = branches = 0
    for name, graph in restored.pvpg.methods.items():
        method = program.methods[name]
        assert graph.method is method
        original = state.pvpg.methods[name]
        statements = [statement for block in method.blocks
                      for statement in block.statements]
        ends = [block.end for block in method.blocks]
        for flow, before in zip(graph.invoke_flows, original.invoke_flows):
            assert any(flow.invoke is statement for statement in statements)
            assert flow.invoke == before.invoke
            invokes += 1
        for record, before in zip(graph.branch_records,
                                  original.branch_records):
            assert any(record.instruction is end for end in ends)
            assert record.instruction == before.instruction
            branches += 1
    assert invokes and branches


def test_restored_state_resumes_as_a_no_op(solved):
    program, state = solved
    restored = SolverState.from_bytes(state.to_bytes(program), program)
    before = restored.counters()
    resumed = SkipFlowAnalysis(program, AnalysisConfig.skipflow(),
                               state=restored).run()
    assert resumed.steps == before["steps"]
    assert resumed.reachable_methods == state.reachable


def test_fork_keeps_direct_references():
    program = generate_benchmark(SPEC)
    state = _solved(program).solver_state
    branch = state.fork()
    for name, graph in branch.pvpg.methods.items():
        original = state.pvpg.methods[name]
        assert graph.method is original.method
        for flow, before in zip(graph.invoke_flows, original.invoke_flows):
            assert flow.invoke is before.invoke
        for record, before in zip(graph.branch_records,
                                  original.branch_records):
            assert record.instruction is before.instruction


class TestMismatch:
    def _blob(self, stamped: bool):
        program = compile_source(SOURCE)
        state = _solved(program).solver_state
        return state.to_bytes(program if stamped else None)

    @pytest.mark.parametrize("stamped", [True, False])
    def test_missing_method_is_named(self, stamped):
        without = compile_source(SOURCE.replace(
            "class Impl extends Base { int run() { return 2; } }",
            "class Impl extends Base { }"))
        with pytest.raises(SolverStateError, match="method Impl.run is missing"):
            SolverState.from_bytes(self._blob(stamped), without)

    def test_changed_body_is_named_by_the_stamp(self):
        changed = compile_source(SOURCE.replace("return 2", "return 9"))
        with pytest.raises(SnapshotMismatchError, match="method Impl.run changed"):
            SolverState.from_bytes(self._blob(True), changed)

    def test_changed_positions_are_named_without_a_stamp(self):
        # Main.main loses its call: its invoke position no longer resolves.
        changed = compile_source(SOURCE.replace("b.run();", ""))
        with pytest.raises(SnapshotMismatchError, match="method Main.main changed"):
            SolverState.from_bytes(self._blob(False), changed)

    def test_a_monotone_extension_resolves(self):
        grown = compile_source(SOURCE + """
class Impl2 extends Base { int run() { return 3; } }
""")
        restored = SolverState.from_bytes(self._blob(True), grown)
        assert restored.pvpg.methods["Main.main"].method is grown.methods["Main.main"]


def test_to_bytes_refuses_instructions_foreign_to_the_program():
    program = compile_source(SOURCE)
    state = _solved(program).solver_state
    graph = state.pvpg.methods["Main.main"]
    graph.invoke_flows[0].invoke = Invoke(result=None, method_name="ghost",
                                          receiver=graph.invoke_flows[0].invoke.receiver)
    with pytest.raises(SolverStateError, match="not in the body of method Main.main"):
        state.to_bytes(program)

