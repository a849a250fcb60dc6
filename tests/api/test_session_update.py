"""Session-level incremental analysis: update(), run(resume=...), fallbacks."""


import pytest

from repro.api import AnalysisSession, ResumeFallbackWarning
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.ir.arena import freeze, open_program
from repro.ir.delta import DeltaError, ProgramDelta
from repro.lang import compile_source

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


def session_fixture():
    return AnalysisSession.from_source(SOURCE, name="incremental")


def attached_session_fixture():
    return AnalysisSession(open_program(freeze(compile_source(SOURCE))),
                           name="incremental")


def growth_delta():
    delta = ProgramDelta("grow")
    delta.declare_class("Impl2", superclass="Base")
    mb = delta.method("Impl2", "run", return_type="int")
    mb.return_(mb.assign_int(3))
    delta.finish_method(mb)
    delta.declare_class("Grower")
    mb = delta.method("Grower", "go", is_static=True)
    obj = mb.assign_new("Impl2")
    mb.invoke_virtual(obj, "run", result_type="int")
    mb.return_void()
    delta.finish_method(mb)
    delta.add_entry_point("Grower.go")
    return delta


def touch_delta():
    delta = ProgramDelta("touch")
    mb = delta.method("Main", "helper", is_static=True)
    mb.return_void()
    delta.finish_method(mb)
    return delta


class TestUpdate:
    def test_monotone_update_applies_and_records(self):
        session = session_fixture()
        update = session.update(growth_delta())
        assert update.monotone
        assert update.generation == 1
        assert session.generation == 1
        assert "Grower.go" in session.program.methods

    def test_non_monotone_update_applies_but_moves_the_barrier(self):
        session = session_fixture()
        update = session.update(touch_delta())
        assert not update.monotone
        assert update.reasons
        assert "Main.helper" in session.program.methods

    def test_non_monotone_reasons_name_the_offender(self):
        session = session_fixture()
        update = session.update(touch_delta())
        # The reasons identify the offending method and class, not just
        # "some delta": they are what fallback warnings surface later.
        assert any("Main.helper" in reason and "Main" in reason
                   for reason in update.reasons)
        assert session.warm_barrier_reasons == update.reasons

    def test_monotone_update_leaves_no_barrier_reasons(self):
        session = session_fixture()
        session.update(growth_delta())
        assert session.warm_barrier_reasons == ()

    def test_structurally_invalid_update_raises_untouched(self):
        session = session_fixture()
        bad = ProgramDelta()
        bad.declare_class("Impl")  # redeclaration
        with pytest.raises(DeltaError):
            session.update(bad)
        assert session.generation == 0


class TestResume:
    def test_warm_run_equals_cold_after_monotone_update(self):
        session = session_fixture()
        base = session.run("skipflow")
        session.update(growth_delta())
        warm = session.run("skipflow", resume=base)
        cold = session.run("skipflow")
        assert warm.reachable_methods == cold.reachable_methods
        assert set(warm.call_edges) == set(cold.call_edges)
        assert "Impl2.run" in warm.reachable_methods

    def test_resume_accepts_report_result_or_state(self):
        for shape in ("report", "result", "state"):
            fresh = session_fixture()
            first = fresh.run("skipflow")
            fresh.update(growth_delta())
            resume = {"report": first, "result": first.raw,
                      "state": first.raw.arena_state}[shape]
            warm = fresh.run("skipflow", resume=resume)
            assert "Impl2.run" in warm.reachable_methods, shape

    def test_resume_with_wrong_type_raises(self):
        session = session_fixture()
        with pytest.raises(TypeError, match="resume must be"):
            session.run("skipflow", resume=object())

    def test_non_monotone_update_falls_back_loudly(self):
        session = session_fixture()
        base = session.run("skipflow")
        session.update(touch_delta())
        with pytest.warns(ResumeFallbackWarning, match="non-monotone"):
            fallback = session.run("skipflow", resume=base)
        cold = session.run("skipflow")
        assert fallback.reachable_methods == cold.reachable_methods

    def test_fallback_warning_names_the_offending_method(self):
        session = session_fixture()
        base = session.run("skipflow")
        session.update(touch_delta())
        # The warning must say *which* edit broke monotonicity, not just
        # that one happened: "method Main.helper is added to pre-existing
        # class Main ...".
        with pytest.warns(ResumeFallbackWarning,
                          match=r"method Main\.helper is added to "
                                r"pre-existing class Main"):
            session.run("skipflow", resume=base)

    def test_states_after_the_barrier_resume_again(self):
        session = session_fixture()
        session.run("skipflow")
        session.update(touch_delta())  # barrier at generation 1
        fresh = session.run("skipflow")
        session.update(growth_delta())
        warm = session.run("skipflow", resume=fresh)
        assert "Impl2.run" in warm.reachable_methods

    def test_bare_states_respect_the_warm_barrier(self):
        session = session_fixture()
        base = session.run("skipflow")
        session.update(touch_delta())  # non-monotone
        with pytest.warns(ResumeFallbackWarning, match="non-monotone"):
            session.run("skipflow", resume=base.raw.arena_state)

    def test_unprovable_foreign_state_falls_back_after_the_barrier(self):
        session = session_fixture()
        base = session.run("skipflow")
        # A generation-free state, as if it came from elsewhere.
        foreign = base.raw.arena_state
        del foreign.session_generation
        session.update(touch_delta())  # non-monotone
        with pytest.warns(ResumeFallbackWarning, match="neither") as caught:
            session.run("skipflow", resume=foreign)
        # This path names the offender too.
        assert any("Main.helper" in str(warning.message)
                   for warning in caught)

    def test_config_mismatch_falls_back_loudly(self):
        session = session_fixture()
        base = session.run("skipflow")
        with pytest.warns(ResumeFallbackWarning, match="configuration"):
            report = session.run("pta", resume=base)
        assert report.analyzer == "pta"

    def test_call_graph_analyzers_fall_back_loudly(self):
        session = session_fixture()
        base = session.run("skipflow")
        with pytest.warns(ResumeFallbackWarning, match="no propagation"):
            report = session.run("cha", resume=base)
        assert report.analyzer == "cha"

    def test_resume_from_restored_snapshot(self):
        session = attached_session_fixture()
        base = session.run("skipflow")
        blob = base.raw.arena_state.to_bytes(session.program)
        restored = ArenaSolverState.from_bytes(blob, session.program)
        session.update(growth_delta())
        warm = session.run("skipflow", resume=restored)
        assert "Impl2.run" in warm.reachable_methods

    def test_snapshot_of_another_program_falls_back_loudly(self):
        first = attached_session_fixture()
        base = first.run("skipflow")
        restored = ArenaSolverState.from_bytes(
            base.raw.arena_state.to_bytes(first.program), first.program)
        # A session over a *different* program cannot use those tables.
        other = AnalysisSession(open_program(freeze(compile_source(
            SOURCE.replace("return 2", "return 9")))), name="other")
        with pytest.warns(ResumeFallbackWarning, match="another program"):
            report = other.run("skipflow", resume=restored)
        assert report.reachable_method_count == 2

    def test_compare_rejects_resume_option(self):
        session = session_fixture()
        base = session.run("skipflow")
        with pytest.raises(ValueError, match="resume"):
            session.compare(["pta", "skipflow"],
                            resume=base.raw.arena_state)
