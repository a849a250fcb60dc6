"""Sessions, root resolution, the report facade, and N-way comparisons."""

import warnings

import pytest

from repro.api import (
    AnalysisReport,
    AnalysisSession,
    CallGraphView,
    NoEntryPointError,
    ResumeFallbackWarning,
    resolve_roots,
    wrap_result,
)
from repro.baselines.cha import ClassHierarchyAnalysis
from repro.core.analysis import run_skipflow
from repro.engine import ProgramStore
from repro.ir.arena import ArenaProgram
from repro.ir.delta import ProgramDelta
from repro.lang import compile_source
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import generate_benchmark, spec_from_reduction

SOURCE = """
class Config {
    boolean isFeatureEnabled() { return false; }
}
class Feature {
    void start() { Printer.emit(); }
}
class Greeter {
    void greet(Config config) {
        Printer.emit();
        if (config.isFeatureEnabled()) {
            Feature feature = new Feature();
            feature.start();
        }
    }
}
class Printer {
    static void emit() { }
}
class Unused {
    void never() { }
}
class Main {
    static void main() {
        Greeter greeter = new Greeter();
        greeter.greet(new Config());
    }
}
"""

NO_ENTRY_SOURCE = """
class Lonely {
    void orphan() { }
}
"""


@pytest.fixture(scope="module")
def session():
    return AnalysisSession.from_source(SOURCE, name="greeter")


class TestRootResolution:
    def test_main_convention_is_the_default(self, session):
        assert session.resolve_roots() == ["Main.main"]

    def test_explicit_roots_win(self, session):
        assert session.resolve_roots(["Unused.never"]) == ["Unused.never"]

    def test_missing_explicit_root_is_a_clear_error(self, session):
        with pytest.raises(NoEntryPointError, match="Ghost.method"):
            session.resolve_roots(["Ghost.method"])

    def test_empty_roots_list_is_a_clear_error(self, session):
        with pytest.raises(NoEntryPointError, match="empty roots"):
            session.resolve_roots([])

    def test_program_without_any_entry_point_is_a_clear_error(self):
        orphan = AnalysisSession.from_source(NO_ENTRY_SOURCE)
        with pytest.raises(NoEntryPointError, match="Main.main"):
            orphan.run("skipflow")

    def test_resolve_roots_prefers_program_entry_points(self):
        program = compile_source(SOURCE, entry_points=["Unused.never"])
        assert resolve_roots(program) == ["Unused.never"]


class TestRun:
    def test_engine_analysis_matches_the_legacy_shim(self, session):
        report = session.run("skipflow")
        legacy = run_skipflow(session.program)
        assert report.reachable_methods == frozenset(legacy.reachable_methods)
        assert report.solver_stats == legacy.stats
        assert sorted(report.call_edges) == sorted(legacy.call_edges())

    def test_call_graph_analysis_matches_direct_cha(self, session):
        report = session.run("cha")
        direct = ClassHierarchyAnalysis(session.program).run(["Main.main"])
        assert report.reachable_methods == frozenset(direct.reachable_methods)
        assert set(report.call_edges) == direct.call_edges
        assert report.poly_calls is None and report.solver_stats is None

    def test_options_reach_the_analyzer(self, session):
        report = session.run("skipflow", saturation_threshold=1)
        assert report.raw.config.saturation_threshold == 1

    def test_roots_override_per_run(self, session):
        report = session.run("skipflow", roots=["Unused.never"])
        assert report.reachable_methods == frozenset({"Unused.never"})


class TestCompare:
    def test_precision_ladder_is_monotone(self):
        spec = spec_from_reduction(name="ladder", suite="test",
                                   total_methods=140, reduction_percent=9.0)
        session = AnalysisSession.from_spec(spec)
        comparison = session.compare(["cha", "rta", "pta", "skipflow"])
        counts = [r.reachable_method_count for r in comparison.reports]
        assert comparison.is_monotone_precision_ladder()
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]  # CHA strictly above SkipFlow

    def test_comparison_accessors(self, session):
        comparison = session.compare(["pta", "skipflow"])
        assert comparison.names == ("pta", "skipflow")
        assert comparison.report("skipflow").analyzer == "skipflow"
        counts = comparison.reachable_counts()
        assert counts["skipflow"] < counts["pta"]
        with pytest.raises(KeyError):
            comparison.report("rta")

    def test_comparison_table_renders_all_columns(self, session):
        table = session.compare(["cha", "pta", "skipflow"]).table()
        assert "cha" in table and "pta" in table and "skipflow" in table
        assert "reachable methods" in table
        assert "n/a" in table  # CHA has no poly calls / solver steps

    def test_fewer_than_two_analyses_rejected(self, session):
        with pytest.raises(ValueError, match="at least two"):
            session.compare(["skipflow"])

    def test_duplicate_analyses_rejected_even_via_alias(self, session):
        with pytest.raises(ValueError, match="duplicate"):
            session.compare(["pta", "baseline"])

    def test_non_monotone_order_is_reported_as_such(self, session):
        comparison = session.compare(["skipflow", "cha"])
        assert not comparison.is_monotone_precision_ladder()

    def test_report_lookup_accepts_the_alias_used_in_compare(self, session):
        comparison = session.compare(["baseline", "skipflow"])
        assert comparison.names == ("pta", "skipflow")
        assert comparison.report("baseline") is comparison.reports[0]
        assert comparison.report("pta") is comparison.reports[0]

    def test_options_route_only_to_supporting_analyzers(self, session):
        """A ladder mixing CHA with engine configs can still sweep engine
        knobs: the cutoff reaches the engine columns, CHA is unaffected."""
        comparison = session.compare(["cha", "pta", "skipflow"],
                                     saturation_threshold=1)
        assert comparison.report("cha").solver_stats is None
        for name in ("pta", "skipflow"):
            assert comparison.report(name).raw.config.saturation_threshold == 1

    def test_option_supported_by_no_analyzer_is_an_error(self, session):
        with pytest.raises(ValueError, match="not supported by any"):
            session.compare(["cha", "rta"], saturation_threshold=4)


class TestFromSpec:
    def test_program_store_roundtrip_is_bit_identical(self, tmp_path):
        spec = spec_from_reduction(name="stored", suite="test",
                                   total_methods=80, reduction_percent=10.0)
        fresh = AnalysisSession.from_spec(spec).run("skipflow")

        store = ProgramStore(tmp_path)
        first = AnalysisSession.from_spec(spec, store=store).run("skipflow")
        assert store.contains(spec)
        second = AnalysisSession.from_spec(spec, store=store).run("skipflow")
        assert store.hits == 1

        for report in (first, second):
            assert report.reachable_methods == fresh.reachable_methods
            assert report.solver_stats == fresh.solver_stats

    def test_monotone_update_extends_an_attached_program_and_resumes_warm(
            self, tmp_path):
        """A store session solves on the arena; an edit extends the arena
        in place, and the warm run resumes on the arena kernel."""
        spec = spec_from_reduction(name="attached", suite="test",
                                   total_methods=80, reduction_percent=10.0)
        store = ProgramStore(tmp_path)
        store.load_or_build(spec)
        session = AnalysisSession(store.attach(spec), name=spec.name)
        program = session.program
        cold = session.run("skipflow")
        assert cold.raw.kernel_ran == "arena"
        flows = program.arena.num_flows

        delta = build_edit_delta(spec, default_edit_script(spec, steps=1).steps[0])
        update = session.update(delta)
        assert update.monotone and not update.thawed
        assert session.program is program
        assert program.arena.num_flows > flows
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResumeFallbackWarning)
            warm = session.run("skipflow", resume=cold)
        assert warm.raw.kernel_ran == "arena"
        assert warm.raw.arena_state is cold.raw.arena_state
        edited = generate_benchmark(spec)
        delta.apply_to(edited)
        fresh = AnalysisSession(edited).run("skipflow")
        assert warm.reachable_methods == fresh.reachable_methods
        assert warm.call_edges == fresh.call_edges
        paid = warm.solver_stats.steps - cold.solver_stats.steps
        assert 0 < paid < fresh.solver_stats.steps

    def test_non_monotone_update_stays_attached_and_falls_back_cold(
            self, tmp_path):
        """A non-monotone edit thaws, applies and re-attaches: the cold
        fallback runs on the arena kernel, and the next monotone edit
        extends the new arena and resumes warm."""
        spec = spec_from_reduction(name="attached", suite="test",
                                   total_methods=80, reduction_percent=10.0)
        session = AnalysisSession.from_spec(spec, store=ProgramStore(tmp_path))
        cold = session.run("skipflow")
        delta = ProgramDelta("graft")
        builder = delta.method("Main", "grafted", is_static=True)
        builder.return_void()
        delta.finish_method(builder)
        update = session.update(delta)
        assert not update.monotone and update.thawed
        assert isinstance(session.program, ArenaProgram)
        assert "Main.grafted" in session.program.methods
        with pytest.warns(ResumeFallbackWarning, match="Main.grafted"):
            again = session.run("skipflow", resume=cold)
        assert again.raw.kernel_ran == "arena"
        assert again.reachable_methods == cold.reachable_methods

        grow = build_edit_delta(spec, default_edit_script(spec, steps=1).steps[0])
        update = session.update(grow)
        assert update.monotone and not update.thawed
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResumeFallbackWarning)
            warm = session.run("skipflow", resume=again)
        assert warm.raw.kernel_ran == "arena"
        assert warm.raw.arena_state is again.raw.arena_state
        assert warm.reachable_methods == AnalysisSession(
            session.program).run("skipflow").reachable_methods

    def test_from_spec_with_a_store_attaches(self, tmp_path):
        spec = spec_from_reduction(name="attached", suite="test",
                                   total_methods=80, reduction_percent=10.0)
        session = AnalysisSession.from_spec(spec, store=ProgramStore(tmp_path))
        assert isinstance(session.program, ArenaProgram)
        assert session.run("skipflow").raw.kernel_ran == "arena"


class TestReportFacade:
    def test_wrap_dispatches_both_result_shapes(self, session):
        analysis = run_skipflow(session.program)
        call_graph = ClassHierarchyAnalysis(session.program).run(["Main.main"])
        assert wrap_result(analysis).solver_stats is analysis.stats
        assert wrap_result(call_graph).analyzer == "CHA"
        with pytest.raises(TypeError):
            wrap_result(object())

    def test_reports_satisfy_the_call_graph_view(self, session):
        for name in ("cha", "skipflow"):
            report = session.run(name)
            assert isinstance(report, CallGraphView)
            assert report.is_method_reachable("Greeter.greet")
            assert "Printer.emit" in report.callees_of("Greeter.greet")
            assert "Main.main" in report.callers_of("Greeter.greet")
            assert not report.is_method_reachable("Unused.never")

    def test_as_dict_carries_none_for_unavailable_metrics(self, session):
        row = session.run("rta").as_dict()
        assert row["poly_calls"] is None and row["solver_steps"] is None
        row = session.run("pta").as_dict()
        assert isinstance(row["solver_steps"], int)

    def test_report_is_a_plain_dataclass(self, session):
        report = session.run("skipflow")
        assert isinstance(report, AnalysisReport)
        assert report.reachable_method_count == len(report.reachable_methods)
        assert report.call_edge_count == len(report.call_edges)
