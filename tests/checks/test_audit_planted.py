"""Planted fixpoint corruption: every audit fires by its stable AUD0xx id.

A green audit only means something if a red state turns it red, so each
test takes a genuinely converged solve, corrupts exactly one invariant the
way a solver bug would, and asserts the matching stable id fires — and
*only* that corruption family.
"""

import pickle

import pytest

from repro.checks import audit_snapshot, audit_state
from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.flows import InvokeFlow
from repro.ir.arena import freeze, open_program
from repro.ir.delta import ProgramFingerprint
from repro.lang import compile_source
from repro.lattice.value_state import ValueState

SOURCE = """
class Greeter {
    int greet() { return 1; }
}
class LoudGreeter extends Greeter {
    int greet() { return 2; }
}
class Main {
    static void main() {
        Greeter greeter = new LoudGreeter();
        greeter.greet();
    }
}
"""


@pytest.fixture
def solved():
    program = compile_source(SOURCE)
    result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
    return program, result.solver_state


@pytest.fixture
def solved_arena():
    """The arena kernel's tables over the attached freeze: the state that
    persists, so the one the snapshot audit (AUD006) verifies."""
    program = open_program(freeze(compile_source(SOURCE)))
    result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
    return program, result.arena_state


def _ids(diagnostics):
    return {diag.id for diag in diagnostics}


def test_clean_state_is_the_control(solved, solved_arena):
    program, state = solved
    assert audit_state(state, program, snapshot=False) == []
    program, state = solved_arena
    assert audit_state(state, program) == []


def test_aud006_of_an_object_state_raises(solved):
    """An object state has no persisted form: the snapshot audit refuses
    it instead of passing silently."""
    program, state = solved
    with pytest.raises(TypeError, match="AUD006"):
        audit_state(state, program)


def test_aud001_reads_residue_in_arena_tables(solved_arena):
    program, state = solved_arena
    state.in_worklist[0] = 1
    assert "AUD001" in _ids(audit_state(state, program, snapshot=False))


def test_aud001_worklist_residue(solved):
    program, state = solved
    next(iter(state.pvpg.all_flows())).in_worklist = True
    assert "AUD001" in _ids(audit_state(state, program, snapshot=False))


def test_aud001_link_queue_residue(solved):
    program, state = solved
    invoke = next(flow for flow in state.pvpg.all_flows()
                  if isinstance(flow, InvokeFlow))
    invoke.in_link_queue = True
    assert "AUD001" in _ids(audit_state(state, program, snapshot=False))


def test_aud002_dropped_flow_state(solved):
    # A buggy solver "loses" a propagated value: the flow's state shrinks
    # below its accumulated input, so one more recompute would re-grow it.
    program, state = solved
    victim = next(flow for flow in state.pvpg.all_flows()
                  if not flow.input_state.is_empty)
    victim.state = ValueState.empty()
    findings = audit_state(state, program, snapshot=False)
    assert "AUD002" in _ids(findings)


def test_aud003_disabled_predicate_target(solved):
    program, state = solved
    flow = next(flow for flow in state.pvpg.all_flows()
                if flow.enabled and not flow.state.is_empty
                and flow.predicate_targets)
    list(flow.predicate_targets)[0].enabled = False
    assert "AUD003" in _ids(audit_state(state, program, snapshot=False))


def test_aud004_dropped_call_edge(solved):
    program, state = solved
    invoke = next(flow for flow in state.pvpg.all_flows()
                  if isinstance(flow, InvokeFlow) and flow.linked_callees)
    invoke.linked_callees.pop()
    findings = audit_state(state, program, snapshot=False)
    assert "AUD004" in _ids(findings)
    assert any("missing" in d.message for d in findings)


def test_aud004_phantom_callee(solved):
    program, state = solved
    invoke = next(flow for flow in state.pvpg.all_flows()
                  if isinstance(flow, InvokeFlow))
    invoke.linked_callees.add("Ghost.spook")
    findings = audit_state(state, program, snapshot=False)
    assert "AUD004" in _ids(findings)
    assert any("neither reachable nor a recorded stub" in d.message
               for d in findings)


def test_aud004_reachable_without_graph(solved):
    program, state = solved
    state.reachable.add("Ghost.spook")
    assert "AUD004" in _ids(audit_state(state, program, snapshot=False))


def test_aud005_saturated_flow_under_policy_off(solved):
    program, state = solved
    flow = next(iter(state.pvpg.all_flows()))
    flow.saturated = True
    findings = audit_state(state, program, snapshot=False)
    assert "AUD005" in _ids(findings)


def test_aud006_forged_snapshot_fingerprint(solved_arena):
    # Pickle-level surgery: replace the stamped fingerprint with one of a
    # program whose method body differs, as if the snapshot were reused
    # across a non-monotone edit.  The restore validation must refuse it.
    program, state = solved_arena
    edited = compile_source(SOURCE.replace("return 1", "return 9"))
    payload = pickle.loads(state.to_bytes(program))
    payload["fingerprint"] = ProgramFingerprint.of(edited)
    forged = pickle.dumps(payload)
    findings = audit_snapshot(forged, program)
    assert _ids(findings) == {"AUD006"}


def test_aud006_truncated_snapshot_blob(solved_arena):
    program, state = solved_arena
    blob = state.to_bytes(program)
    findings = audit_snapshot(blob[: len(blob) // 2], program)
    assert _ids(findings) == {"AUD006"}


def test_aud006_wraps_corruption_found_after_restore(solved_arena):
    # The corruption lives *inside* the snapshot: the restored state fails
    # its own re-audit, reported under the snapshot check's id.
    program, state = solved_arena
    state.in_worklist[0] = 1
    blob = state.to_bytes(program)
    findings = audit_snapshot(blob, program)
    assert _ids(findings) == {"AUD006"}
    assert any("AUD001" in d.message for d in findings)


def test_aud007_state_predating_the_warm_barrier(solved):
    program, state = solved
    state.session_generation = 3
    clean = audit_state(state, program, warm_barrier=3, snapshot=False)
    assert "AUD007" not in _ids(clean)
    stale = audit_state(state, program, warm_barrier=5, snapshot=False)
    assert "AUD007" in _ids(stale)
