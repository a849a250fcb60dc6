"""Shape invariants and saturation semantics of the wide-hierarchy family."""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis, run_baseline, run_skipflow
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import validate_program
from repro.workloads.generator import BenchmarkSpec, HierarchySpec, generate_benchmark
from repro.workloads.patterns import add_wide_hierarchy_module
from repro.workloads.suites import (
    WIDE_HIERARCHY_SUITE,
    all_suites,
    extended_suites,
    suite_by_name,
    wide_hierarchy_suite,
)


def _hierarchy_program(depth=2, fanout=4, call_sites=3, guarded_methods=8):
    pb = ProgramBuilder()
    handle = add_wide_hierarchy_module(
        pb, "Demo", depth=depth, fanout=fanout,
        call_sites=call_sites, guarded_methods=guarded_methods)
    pb.declare_class("Main")
    mb = pb.method("Main", "main", is_static=True)
    mb.invoke_static(*handle.driver.split("."))
    mb.return_void()
    pb.finish_method(mb)
    pb.add_entry_point("Main.main")
    return pb.build(), handle


class TestHierarchyModule:
    def test_shape_matches_knobs(self):
        program, handle = _hierarchy_program(depth=2, fanout=4)
        validate_program(program)
        assert handle.leaf_count == 16
        # fanout^0 + fanout^1 + fanout^2 tree classes plus the rare type.
        assert handle.type_count == 1 + 4 + 16 + 1
        for name in handle.method_names:
            assert program.has_method(name)

    def test_every_class_is_concrete_with_run(self):
        program, handle = _hierarchy_program()
        for class_name in handle.class_names:
            assert program.has_method(f"{class_name}.run")

    def test_exact_analysis_sees_all_leaves_and_no_rare(self):
        program, handle = _hierarchy_program()
        result = run_skipflow(program)
        for leaf in handle.leaf_classes:
            assert result.is_method_reachable(f"{leaf}.run")
        assert not result.is_method_reachable(f"{handle.rare_class}.run")

    def test_payload_dead_exactly_live_for_baseline(self):
        program, handle = _hierarchy_program()
        assert not run_skipflow(program).is_method_reachable(handle.payload_entry)
        assert run_baseline(program).is_method_reachable(handle.payload_entry)

    def test_saturation_keeps_rare_guard_precision(self):
        """A below-width cutoff collapses to the allocated-type top, which
        excludes the never-allocated rare class, so the rare guard still
        discharges and its payload stays dead."""
        program, handle = _hierarchy_program(depth=2, fanout=4)
        config = AnalysisConfig.skipflow().with_saturation_threshold(4)
        saturated = SkipFlowAnalysis(program, config).run()
        assert saturated.stats.saturated_flows > 0
        assert not saturated.is_method_reachable(handle.payload_entry)
        assert not saturated.is_method_reachable(f"{handle.rare_class}.run")
        # Sound over-approximation: everything the exact analysis reaches.
        exact = run_skipflow(program)
        assert exact.reachable_methods <= saturated.reachable_methods

    def test_cutoff_above_width_is_exact(self):
        program, handle = _hierarchy_program(depth=1, fanout=4)
        config = AnalysisConfig.skipflow().with_saturation_threshold(1000)
        high = SkipFlowAnalysis(program, config).run()
        exact = run_skipflow(program)
        assert high.reachable_methods == exact.reachable_methods
        assert high.stats.saturated_flows == 0

    def test_invalid_knobs_rejected(self):
        pb = ProgramBuilder()
        with pytest.raises(ValueError):
            add_wide_hierarchy_module(pb, "Bad", depth=0, fanout=4)
        with pytest.raises(ValueError):
            add_wide_hierarchy_module(pb, "Bad", depth=1, fanout=1)
        with pytest.raises(ValueError):
            add_wide_hierarchy_module(pb, "Bad", depth=1, fanout=4, call_sites=0)


class TestHierarchySpec:
    def test_counts_model(self):
        spec = HierarchySpec(depth=2, fanout=4, call_sites=3, guarded_methods=8)
        assert spec.leaf_count == 16
        assert spec.type_count == 22
        program, handle = _hierarchy_program(depth=2, fanout=4, call_sites=3,
                                             guarded_methods=8)
        assert spec.method_count == handle.method_count

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            HierarchySpec(depth=0)
        with pytest.raises(ValueError):
            HierarchySpec(fanout=1)
        with pytest.raises(ValueError):
            HierarchySpec(call_sites=0)

    def test_benchmark_spec_counts_hierarchies(self):
        hierarchy = HierarchySpec(depth=1, fanout=8)
        spec = BenchmarkSpec(name="h", suite="test", core_methods=30,
                             guarded_modules=(), hierarchies=(hierarchy,))
        assert spec.hierarchy_methods == hierarchy.method_count
        assert spec.hierarchy_types == hierarchy.type_count
        program = generate_benchmark(spec)
        validate_program(program)
        assert len(program.methods) == spec.expected_total_methods

    def test_generation_is_deterministic(self):
        spec = BenchmarkSpec(name="h", suite="test", core_methods=25,
                             guarded_modules=(),
                             hierarchies=(HierarchySpec(depth=2, fanout=3),))
        assert (sorted(generate_benchmark(spec).methods)
                == sorted(generate_benchmark(spec).methods))


class TestWideHierarchySuite:
    def test_suite_reaches_hundreds_of_types_per_flow(self):
        suite = wide_hierarchy_suite()
        assert len(suite) >= 5
        widths = [spec.hierarchies[0].leaf_count for spec in suite]
        assert max(widths) >= 500
        assert sum(1 for width in widths if width >= 100) >= 3

    def test_specs_have_exact_method_model(self):
        for spec in wide_hierarchy_suite()[:2]:
            program = generate_benchmark(spec)
            validate_program(program)
            assert len(program.methods) == spec.expected_total_methods

    def test_not_part_of_paper_suites(self):
        assert WIDE_HIERARCHY_SUITE not in all_suites()
        assert WIDE_HIERARCHY_SUITE in extended_suites()

    def test_lookup_by_name(self):
        assert suite_by_name("widehierarchy") == wide_hierarchy_suite()

    @pytest.mark.parametrize("spec", wide_hierarchy_suite(),
                             ids=lambda spec: spec.name)
    def test_reachable_refinement_keeps_the_exact_reachable_set(self, spec):
        """At threshold 2, the policy study's lowest, both cutoffs fire on
        every spec: ``allocated-type`` stays a sound superset of the exact
        reachable set and ``allocated-type-reachable`` recovers it exactly."""
        program = generate_benchmark(spec)
        exact = frozenset(SkipFlowAnalysis(
            program, AnalysisConfig.skipflow()).run().reachable_methods)

        def reachable(policy):
            config = AnalysisConfig.skipflow().with_saturation_policy(policy, 2)
            result = SkipFlowAnalysis(program, config).run()
            assert result.stats.saturated_flows > 0
            return frozenset(result.reachable_methods)

        assert reachable("allocated-type") >= exact
        assert reachable("allocated-type-reachable") == exact
