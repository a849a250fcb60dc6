"""The arena propagation kernel against the executable specification.

Every solve runs on the flat integer-id tables of :mod:`repro.ir.arena`.
Its fixpoint must equal the reference's (:mod:`repro.checks.reference`):
reachable and stub methods, every invoke flow's callees and every flow's
value state, enabled bit and saturation bit — under every saturation
policy, on generated benchmarks from the paper (tier-1), wide, and
composed suites alike.  Cells solve the attached freeze (``memoryview``
columns) and the in-memory lowering (list columns), which must also agree
on every counter.  The grid here is the in-repo anchor for the CI gates
(solver-steps baseline, fuzz ``kernel-divergence`` invariant).
"""

from dataclasses import replace

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import available_saturation_policies
from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.image.builder import NativeImageBuilder
from repro.ir.arena import freeze, lowered_program, open_program
from repro.lang import compile_source
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import (
    dacapo_suite,
    suite_by_name,
    wide_hierarchy_suite,
)
from tests.conftest import reference_divergences


def _workload(suite, name):
    for spec in suite:
        if spec.name == name:
            return spec
    raise AssertionError(f"no spec named {name!r}")


#: One representative per suite family: paper-shaped (tier-1 sizes), wide
#: hierarchy, and composed multi-hierarchy.
WORKLOADS = {
    "dacapo-pmd": _workload(dacapo_suite(), "pmd"),
    "wide-flat-64": _workload(suite_by_name("WideHierarchy"), "wide-flat-64"),
    "composed-duo-112": _workload(suite_by_name("WideHierarchy"),
                                  "composed-duo-112"),
}

#: A compiled-source program: a guarded allocation the analysis prunes.
FEATURE_FLAG_SOURCE = """
class Config {
    static boolean enabled() { return false; }
}
class Feature {
    void start() { }
}
class Fancy extends Feature {
    void start() { }
}
class Main {
    static void main() {
        Feature feature = new Feature();
        if (Config.enabled()) {
            feature = new Fancy();
        }
        feature.start();
    }
}
"""

#: Every WideHierarchy shape (flat, mid, deep, broad, huge, composed).
WIDE_SPECS = {spec.name: spec for spec in wide_hierarchy_suite()}

_PROGRAMS = {}
_ATTACHED = {}


def _program(key):
    if key not in _PROGRAMS:
        _PROGRAMS[key] = generate_benchmark(WORKLOADS.get(key)
                                            or WIDE_SPECS[key])
    return _PROGRAMS[key]


def _attached(key):
    """The workload's attached freeze: cold solves of it run on the arena."""
    if key not in _ATTACHED:
        _ATTACHED[key] = open_program(freeze(_program(key)))
    return _ATTACHED[key]


def _lowered(key):
    """The workload's in-memory lowering: list columns, solved on the arena."""
    return lowered_program(_program(key))


#: The two column types the arena kernel drains: an attached buffer's
#: ``memoryview`` slices and an in-memory lowering's lists.
COLUMNS = {"attached": (_attached, memoryview), "lowered": (_lowered, list)}


def _canonical(result):
    return (frozenset(result.reachable_methods),
            sorted(result.call_edges()),
            result.steps,
            result.stats.joins,
            result.stats.transfers,
            result.stats.saturated_flows)


def _solve_arena(key, config, columns="attached"):
    make, column_type = COLUMNS[columns]
    program = make(key)
    assert isinstance(program.arena.use_val, column_type)
    return SkipFlowAnalysis(program, config).run()


def _assert_matches_reference(key, config):
    """Both column types reach the reference's fixpoint, with the same
    counters."""
    attached = _solve_arena(key, config, "attached")
    lowered = _solve_arena(key, config, "lowered")
    assert not reference_divergences(attached)
    assert not reference_divergences(lowered)
    assert _canonical(attached) == _canonical(lowered)
    return attached


#: Every built-in cutoff sentinel (``off`` has no sentinel to mirror).
CUTOFFS = tuple(name for name in available_saturation_policies()
                if name != "off")


class TestReferenceGrid:
    @pytest.mark.parametrize("saturation", available_saturation_policies())
    def test_full_grid_on_wide(self, saturation):
        config = AnalysisConfig.skipflow()
        if saturation != "off":
            config = config.with_saturation_policy(saturation, 4)
        _assert_matches_reference("wide-flat-64", config)

    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    def test_default_config_on_tier1_and_composed(self, workload):
        _assert_matches_reference(workload, AnalysisConfig.skipflow())

    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    @pytest.mark.parametrize("saturation", CUTOFFS)
    def test_saturations_on_tier1_and_composed(self, workload, saturation):
        _assert_matches_reference(workload, AnalysisConfig.skipflow()
                                  .with_saturation_policy(saturation, 8))

    @pytest.mark.parametrize("workload", sorted(WIDE_SPECS))
    @pytest.mark.parametrize("saturation", CUTOFFS)
    def test_every_wide_spec_at_the_lowest_study_threshold(self, workload,
                                                            saturation):
        """Threshold 2, the policy study's lowest, saturates flows on every
        hierarchy shape; the kernel must still reach the reference's
        fixpoint."""
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy(saturation, 2))
        result = _solve_arena(workload, config)
        assert result.stats.saturated_flows > 0
        assert not reference_divergences(result)

    @pytest.mark.parametrize("config_name", [
        "baseline_pta", "predicates_only", "primitives_only"])
    def test_baseline_and_ablations(self, config_name):
        _assert_matches_reference("dacapo-pmd",
                                  getattr(AnalysisConfig, config_name)())

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("saturation,threshold", tuple(
        (saturation, threshold) for saturation in CUTOFFS
        for threshold in (4, 1)))
    def test_saturated_bits_at_every_threshold(self, workload, saturation,
                                               threshold):
        """Threshold 1 collapses every flow that sees a second type, so the
        saturated bits and sentinel states are checked at scale too."""
        result = _solve_arena(workload, AnalysisConfig.skipflow()
                              .with_saturation_policy(saturation, threshold))
        assert not reference_divergences(result)


class TestImageFastPath:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_image_reports_identical(self, workload, walked_image_report):
        """The table-read image counters equal the PVPG-walking ones."""
        config = AnalysisConfig.skipflow()
        walked = walked_image_report(_program(workload), config, workload)
        arena = NativeImageBuilder(
            _attached(workload), config, benchmark_name=workload).build()
        assert (replace(arena.metrics, analysis_time_seconds=0.0)
                == replace(walked.metrics, analysis_time_seconds=0.0))
        assert arena.binary_size_bytes == walked.binary_size_bytes
        assert (sorted(arena.dead_code.methods)
                == sorted(walked.dead_code.methods))
        for name, dead in walked.dead_code.methods.items():
            assert arena.dead_code.methods[name] == dead


class TestLazyInflation:
    def test_pvpg_and_state_inflate_on_demand(self):
        result = _solve_arena("wide-flat-64", AnalysisConfig.skipflow())
        backend = result.kernel_backend
        assert backend._inflated is None
        assert result.pvpg is not None
        assert backend._inflated is not None
        assert result.solver_state.counters() == result.arena_state.counters()
        assert set(result.pvpg.methods) == set(result.reachable_methods)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS) + ["feature-flag"])
    def test_queries_agree_with_the_inflated_graph(self, workload):
        """The table queries answer what the inflated PVPG says."""
        if workload == "feature-flag":
            program = compile_source(FEATURE_FLAG_SOURCE)
        else:
            program = _program(workload)
        result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        assert not reference_divergences(result)
        pvpg = result.pvpg
        edges = [(graph.qualified_name, callee)
                 for graph in result.reachable_graphs()
                 for invoke in graph.invoke_flows
                 for callee in sorted(invoke.linked_callees)]
        assert result.call_edges() == edges
        for name in sorted(result.reachable_methods)[:20]:
            graph = pvpg.method_graph(name)
            for index, flow in enumerate(graph.parameter_flows):
                assert result.parameter_state(name, index) is flow.state
            assert result.call_targets(name) == {
                f"{flow.label}#{index}": frozenset(flow.linked_callees)
                for index, flow in enumerate(graph.invoke_flows)}


class _MixedRowProbe(dict):
    """An ``_extra_uses`` table that counts the drained rows holding both
    static CSR uses and solve-time extras (the drain's list-copy path)."""

    def __init__(self, arena):
        super().__init__()
        self.arena = arena
        self.mixed_rows = 0

    def get(self, fid, default=None):
        extras = super().get(fid, default)
        if extras and self.arena.use_ptr[fid + 1] > self.arena.use_ptr[fid]:
            self.mixed_rows += 1
        return extras


class TestColumnTypes:
    """Attached (``memoryview``) and lowered (``list``) columns drain alike."""

    @pytest.mark.parametrize("columns", sorted(COLUMNS))
    @pytest.mark.parametrize("workload", ["wide-flat-64", "composed-duo-112"])
    def test_rows_with_static_and_solve_time_uses(self, workload, columns):
        """A flow that feeds uses in its own method and is passed as a call
        argument (here type filters and field loads) drains one row from
        both sources."""
        program = COLUMNS[columns][0](workload)
        config = AnalysisConfig.skipflow()
        solver = ArenaKernelSolver(program, config)
        probe = solver._extra_uses = _MixedRowProbe(program.arena)
        solver.solve()
        assert probe.mixed_rows > 0
        assert not reference_divergences(solver.arena_state)
