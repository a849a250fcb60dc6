"""Shape and analysis invariants of the composed multi-hierarchy workloads."""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis, run_baseline, run_skipflow
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import validate_program
from repro.workloads.generator import BenchmarkSpec, HierarchySpec, generate_benchmark
from repro.workloads.patterns import add_composed_hierarchies_module
from repro.workloads.suites import WIDE_HIERARCHY_SUITE, wide_hierarchy_suite

SHAPES = ((1, 8, 3, 8), (2, 3, 2, 8))


def _composed_program(shapes=SHAPES):
    pb = ProgramBuilder()
    handle = add_composed_hierarchies_module(pb, "Mix", shapes)
    pb.declare_class("Main")
    mb = pb.method("Main", "main", is_static=True)
    mb.invoke_static(*handle.driver.split("."))
    mb.return_void()
    pb.finish_method(mb)
    pb.add_entry_point("Main.main")
    return pb.build(), handle


def _composed_spec(name="composed-test"):
    return BenchmarkSpec(
        name=name, suite="test", core_methods=20, guarded_modules=(),
        hierarchies=tuple(HierarchySpec(depth=d, fanout=f, call_sites=c,
                                        guarded_methods=g)
                          for d, f, c, g in SHAPES),
        compose_hierarchies=True)


class TestComposedModule:
    def test_shape(self):
        program, handle = _composed_program()
        validate_program(program)
        assert handle.hierarchy_count == 2
        assert handle.mixed_leaf_count == 8 + 9
        for name in handle.method_names:
            assert program.has_method(name)

    def test_hierarchies_share_the_common_root(self):
        program, handle = _composed_program()
        hierarchy = program.hierarchy
        for sub in handle.hierarchies:
            assert hierarchy.is_subtype(sub.root_class, handle.common_class)

    def test_mixed_field_interleaves_every_leaf_set(self):
        """The router field must end up holding the union of the leaf sets —
        megamorphism neither hierarchy produces alone."""
        program, handle = _composed_program()
        result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        mixed = result.field_state(f"{handle.router_class}.mixed")
        leaves = {leaf for sub in handle.hierarchies
                  for leaf in sub.leaf_classes}
        assert set(mixed.reference_types) == leaves

    def test_exact_analysis_proves_cross_payloads_dead(self):
        program, handle = _composed_program()
        result = run_skipflow(program)
        for sub in handle.hierarchies:
            assert not result.is_method_reachable(sub.payload_entry)
            assert not result.is_method_reachable(f"{sub.rare_class}.run")
        baseline = run_baseline(program)
        for sub in handle.hierarchies:
            assert baseline.is_method_reachable(sub.payload_entry)

    def test_saturating_the_mixed_field_keeps_cross_payloads_dead(self):
        """The allocated-type top a bare threshold engages excludes every
        never-allocated rare class, so the cross payloads stay dead even
        though the saturated solve is coarser than the exact one."""
        program, handle = _composed_program()
        saturated = SkipFlowAnalysis(
            program,
            AnalysisConfig.skipflow().with_saturation_threshold(4)).run()
        exact = run_skipflow(program)
        assert saturated.stats.saturated_flows > 0
        assert exact.reachable_methods < saturated.reachable_methods
        for sub in handle.hierarchies:
            assert not saturated.is_method_reachable(sub.payload_entry)

    def test_hierarchy_count_bounds(self):
        pb = ProgramBuilder()
        with pytest.raises(ValueError, match="2-4"):
            add_composed_hierarchies_module(pb, "Bad", ((1, 4, 2, 8),))
        with pytest.raises(ValueError, match="2-4"):
            add_composed_hierarchies_module(pb, "Bad", ((1, 4, 2, 8),) * 5)


class TestComposedSpec:
    def test_exact_method_model(self):
        spec = _composed_spec()
        program = generate_benchmark(spec)
        validate_program(program)
        assert len(program.methods) == spec.expected_total_methods

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="2-4"):
            BenchmarkSpec(name="bad", suite="test", core_methods=10,
                          guarded_modules=(),
                          hierarchies=(HierarchySpec(depth=1, fanout=4),),
                          compose_hierarchies=True)

    def test_generation_is_deterministic(self):
        assert (sorted(generate_benchmark(_composed_spec()).methods)
                == sorted(generate_benchmark(_composed_spec()).methods))

    def test_composed_flag_changes_the_program(self):
        composed = generate_benchmark(_composed_spec())
        independent = generate_benchmark(
            BenchmarkSpec(name="composed-test", suite="test", core_methods=20,
                          guarded_modules=(),
                          hierarchies=_composed_spec().hierarchies))
        assert sorted(composed.methods) != sorted(independent.methods)


class TestSuiteIntegration:
    def test_wide_suite_contains_composed_specs(self):
        suite = wide_hierarchy_suite()
        composed = [spec for spec in suite if spec.compose_hierarchies]
        assert len(composed) >= 3
        assert {len(spec.hierarchies) for spec in composed} >= {2, 3, 4}
        for spec in composed:
            assert spec.suite == WIDE_HIERARCHY_SUITE

    def test_composed_suite_specs_have_exact_method_model(self):
        spec = next(s for s in wide_hierarchy_suite() if s.compose_hierarchies)
        assert (len(generate_benchmark(spec).methods)
                == spec.expected_total_methods)
