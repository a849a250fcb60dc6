"""Post-solve audits are green across every analyzer x policy combination.

The matrix is the contract the fuzz oracle and the daemon rely on: a
*correct* solve — any config-backed analyzer, saturation on or off, cold
or warm, over a plain program's lowering or an attached freeze — audits
clean, equals the executable specification's fixpoint
(:mod:`repro.checks.reference`), and its tables survive the snapshot
round-trip.
"""

import pytest

from repro.api import AnalysisSession
from repro.api.registry import config_backed_analyzers, get_analyzer
from repro.checks import audit_result, audit_snapshot, audit_state
from repro.core.analysis import SkipFlowAnalysis
from repro.ir.arena import freeze, open_program
from repro.ir.delta import ProgramDelta
from repro.lang import compile_source
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import wide_hierarchy_suite
from tests.conftest import build_virtual_threads_program, reference_divergences

#: Every cutoff at two thresholds: 8 saturates only the wide spec's
#: megamorphic flows, 1 collapses every flow that sees a second type.
SATURATIONS = (("off", None),) + tuple(
    (saturation, threshold)
    for saturation in ("allocated-type", "allocated-type-reachable")
    for threshold in (8, 1))

SOURCE = """
class Config {
    boolean isFeatureEnabled() { return false; }
}
class Feature {
    void start() { }
}
class Main {
    static void main() {
        Config config = new Config();
        if (config.isFeatureEnabled()) {
            Feature feature = new Feature();
            feature.start();
        }
    }
}
"""


def _programs():
    yield "feature-flag", compile_source(SOURCE)
    yield "virtual-threads", build_virtual_threads_program(True)
    spec = min(wide_hierarchy_suite(), key=lambda s: s.name != "wide-flat-64")
    yield spec.name, generate_benchmark(spec)


@pytest.mark.parametrize("analyzer_name", config_backed_analyzers())
@pytest.mark.parametrize("saturation,threshold", SATURATIONS)
def test_every_combo_audits_clean(analyzer_name, saturation, threshold):
    config = get_analyzer(analyzer_name).config(threshold, saturation)
    for label, program in _programs():
        result = SkipFlowAnalysis(program, config).run()
        assert not reference_divergences(result), label
        findings = audit_state(result.arena_state, program)
        assert findings == [], (
            f"{label} [{analyzer_name} {saturation}@{threshold}]: "
            + "; ".join(d.render() for d in findings))


@pytest.mark.parametrize("analyzer_name", config_backed_analyzers())
@pytest.mark.parametrize("saturation,threshold", SATURATIONS)
def test_arena_kernel_state_audits_clean(analyzer_name, saturation,
                                         threshold):
    """The arena kernel's tables (a cold solve of the attached freeze) pass
    the same audits, and their round trip re-audits clean."""
    config = get_analyzer(analyzer_name).config(threshold, saturation)
    for label, program in _programs():
        attached = open_program(freeze(program))
        result = SkipFlowAnalysis(attached, config).run()
        findings = audit_state(result.arena_state, attached)
        assert findings == [], (
            f"{label} [{analyzer_name} {saturation}@{threshold} arena]: "
            + "; ".join(d.render() for d in findings))


def test_audit_result_reads_the_report_payload():
    program = open_program(freeze(compile_source(SOURCE)))
    report = get_analyzer("skipflow").analyze(program)
    assert audit_result(report.raw) == []


def test_audit_result_of_a_report_audits_its_raw_result():
    """Handed the report itself, ``audit_result`` audits ``report.raw``:
    worklist residue planted in the tables is found either way."""
    program = open_program(freeze(compile_source(SOURCE)))
    report = get_analyzer("skipflow").analyze(program)
    assert audit_result(report) == []
    report.raw.arena_state.in_worklist[0] = 1
    for audited in (report, report.raw):
        findings = audit_result(audited, snapshot=False)
        assert "AUD001" in {finding.id for finding in findings}


def test_audit_result_of_a_plain_program_round_trips_its_lowering():
    """A plain program's tables index its lowering: the snapshot audit
    round-trips them over it."""
    report = get_analyzer("skipflow").analyze(compile_source(SOURCE))
    assert audit_result(report.raw, snapshot=False) == []
    assert audit_result(report.raw) == []


def test_an_inflated_state_has_no_snapshot_to_audit():
    report = get_analyzer("skipflow").analyze(compile_source(SOURCE))
    assert audit_state(report.raw.solver_state, report.raw.program,
                       snapshot=False) == []
    with pytest.raises(TypeError, match="AUD006"):
        audit_state(report.raw.solver_state, report.raw.program)


def test_audit_result_without_solver_state_is_empty():
    program = compile_source(SOURCE)
    report = get_analyzer("cha").analyze(program)
    assert audit_result(report.raw) == []


def test_stamped_snapshot_blob_audits_clean():
    program = open_program(freeze(compile_source(SOURCE)))
    result = SkipFlowAnalysis(program,
                              get_analyzer("skipflow").config()).run()
    blob = result.arena_state.to_bytes(program)
    assert audit_snapshot(blob, program) == []


def test_warm_resumed_session_state_audits_clean():
    session = AnalysisSession(open_program(freeze(compile_source(SOURCE))))
    first = session.run("skipflow")
    delta = ProgramDelta("extend")
    delta.declare_class("LoudConfig", superclass="Config")
    mb = delta.method("LoudConfig", "isFeatureEnabled", return_type="boolean")
    one = mb.assign_int(1)
    mb.return_(one)
    delta.finish_method(mb)
    session.update(delta)
    report = session.run("skipflow", resume=first)
    assert report.raw.arena_state is first.raw.arena_state
    findings = audit_state(report.raw.arena_state, session.program,
                           warm_barrier=session.warm_barrier)
    assert findings == []
