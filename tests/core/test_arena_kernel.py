"""The arena propagation kernel: bit-identical to the object kernel.

``kernel="arena"`` solves on the flat integer-id tables of
:mod:`repro.ir.arena` instead of the object-graph PVPG; its contract is
*exact* equality of every canonical output — reachable sets, call edges,
step/join/transfer counters, saturated-flow counts, and the image layer's
metrics and per-method dead-code reports — across the full scheduling ×
saturation grid, on generated benchmarks from the paper (tier-1), wide, and
composed suites alike.  The grid here is the in-repo anchor for the CI
gates (solver-steps baseline, fuzz ``kernel-divergence`` invariant).
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.analysis import KERNELS, AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import (
    available_saturation_policies,
    available_scheduling_policies,
)
from repro.core.kernel.arena_kernel import (
    ArenaKernelSolver,
    ArenaKernelUnsupported,
)
from repro.image.builder import NativeImageBuilder
from repro.ir.arena import freeze, open_program
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import dacapo_suite, suite_by_name


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

_PROGRAMS = {}


def _program(key):
    if key not in _PROGRAMS:
        _PROGRAMS[key] = generate_benchmark(WORKLOADS[key])
    return _PROGRAMS[key]


def _canonical(result):
    return (frozenset(result.reachable_methods),
            sorted(result.call_edges()),
            result.steps,
            result.stats.joins,
            result.stats.transfers,
            result.stats.saturated_flows)


def _solve(key, config):
    return SkipFlowAnalysis(_program(key), config).run()


#: Every registered cutoff sentinel (``off`` has no sentinel to mirror).
CUTOFFS = tuple(name for name in available_saturation_policies()
                if name != "off")


def _flow_states(result):
    """Every flow's value state and saturation bit, plus linked callees.

    Flow uids differ between kernels, so flows are keyed by (method,
    label, kind) in a multiset; value states are hash-consed and compare
    structurally.  On an arena result this walks the inflated PVPG.
    """
    pvpg = result.pvpg
    states = Counter()
    edges = set()
    for graph in pvpg.methods.values():
        for flow in graph.flows:
            states[(graph.qualified_name, flow.label, flow.kind.value,
                    flow.state, flow.saturated)] += 1
        for invoke in graph.invoke_flows:
            for callee in invoke.linked_callees:
                edges.add((graph.qualified_name, invoke.label, callee))
    for name, field_flow in pvpg.field_flows.items():
        states[("<fields>", name, field_flow.kind.value, field_flow.state,
                field_flow.saturated)] += 1
    return states, edges


class TestBitIdenticalGrid:
    @pytest.mark.parametrize("scheduling", available_scheduling_policies())
    @pytest.mark.parametrize("saturation", available_saturation_policies())
    def test_full_grid_on_wide(self, scheduling, saturation):
        config = AnalysisConfig.skipflow().with_scheduling(scheduling)
        if saturation != "off":
            config = config.with_saturation_policy(saturation, 4)
        reference = _solve("wide-flat-64", config)
        arena = _solve("wide-flat-64", config.with_kernel("arena"))
        assert _canonical(arena) == _canonical(reference)

    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    @pytest.mark.parametrize("scheduling", available_scheduling_policies())
    def test_schedulings_on_tier1_and_composed(self, workload, scheduling):
        config = AnalysisConfig.skipflow().with_scheduling(scheduling)
        reference = _solve(workload, config)
        arena = _solve(workload, config.with_kernel("arena"))
        assert _canonical(arena) == _canonical(reference)

    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    @pytest.mark.parametrize("saturation", CUTOFFS)
    def test_saturations_on_tier1_and_composed(self, workload, saturation):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy(saturation, 8))
        reference = _solve(workload, config)
        arena = _solve(workload, config.with_kernel("arena"))
        assert _canonical(arena) == _canonical(reference)

    def test_baseline_pta_is_bit_identical_too(self):
        config = AnalysisConfig.baseline_pta()
        reference = _solve("dacapo-pmd", config)
        arena = _solve("dacapo-pmd", config.with_kernel("arena"))
        assert _canonical(arena) == _canonical(reference)


class TestPerFlowStates:
    """Beyond the canonical outputs: every flow ends in the same state."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheduling", available_scheduling_policies())
    @pytest.mark.parametrize("saturation", available_saturation_policies())
    def test_flow_states_match_the_object_kernel(self, workload, scheduling,
                                                  saturation):
        config = AnalysisConfig.skipflow().with_scheduling(scheduling)
        if saturation != "off":
            config = config.with_saturation_policy(saturation, 4)
        reference = _solve(workload, config)
        arena = _solve(workload, config.with_kernel("arena"))
        assert arena.kernel_ran == "arena"
        assert _flow_states(arena) == _flow_states(reference)


class TestAttachedArenaInput:
    def test_solving_an_attached_arena_matches(self):
        """The zero-decode worker path: mmap-shaped input, same results."""
        program = _program("dacapo-pmd")
        attached = open_program(freeze(program))
        config = AnalysisConfig.skipflow().with_kernel("arena")
        reference = _solve("dacapo-pmd", AnalysisConfig.skipflow())
        arena = SkipFlowAnalysis(attached, config).run()
        assert _canonical(arena) == _canonical(reference)


class TestImageFastPath:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_image_reports_identical(self, workload):
        """The arena-native image counters equal the PVPG-walking ones."""
        config = AnalysisConfig.skipflow()
        reference = NativeImageBuilder(
            _program(workload), config,
            benchmark_name=workload).build()
        arena = NativeImageBuilder(
            _program(workload), config.with_kernel("arena"),
            benchmark_name=workload).build()
        assert (replace(arena.metrics, analysis_time_seconds=0.0)
                == replace(reference.metrics, analysis_time_seconds=0.0))
        assert arena.binary_size_bytes == reference.binary_size_bytes
        assert (sorted(arena.dead_code.methods)
                == sorted(reference.dead_code.methods))
        for name, dead in reference.dead_code.methods.items():
            assert arena.dead_code.methods[name] == dead


class TestLazyInflation:
    def test_pvpg_and_state_inflate_on_demand(self):
        config = AnalysisConfig.skipflow().with_kernel("arena")
        result = SkipFlowAnalysis(_program("wide-flat-64"), config).run()
        assert result.kernel_backend is not None
        # Inflation is lazy but complete: the inflated state matches the
        # object kernel's canonical outputs.
        reference = _solve("wide-flat-64", AnalysisConfig.skipflow())
        assert result.pvpg is not None
        assert (frozenset(result.reachable_methods)
                == frozenset(reference.reachable_methods))
        assert sorted(result.call_edges()) == sorted(reference.call_edges())
        assert result.solver_state.counters() == reference.solver_state.counters()

    def test_object_kernel_has_no_backend(self):
        result = _solve("wide-flat-64", AnalysisConfig.skipflow())
        assert result.kernel_backend is None


class TestFallbacks:
    def test_warm_resume_falls_back_to_the_object_solver(self):
        """The arena kernel refuses resumes; the run still succeeds warm.

        Resume requires the state's config (kernel field included), so the
        warm solve keeps ``kernel="arena"`` — and the engine routes it to
        the object solver anyway, because only cold solves qualify.
        """
        program = _program("wide-flat-64")
        config = AnalysisConfig.skipflow().with_kernel("arena")
        cold = SkipFlowAnalysis(program, config).run()
        assert cold.kernel_backend is not None
        assert (cold.kernel_ran, cold.fallback) == ("arena", None)
        resumed = SkipFlowAnalysis(
            program, config, state=cold.solver_state).run()
        assert resumed.kernel_backend is None  # object solver took it
        # ...and the result says so, with the arena kernel's reason.
        assert resumed.kernel_ran == "object"
        assert "only runs cold solves" in resumed.fallback
        assert (frozenset(resumed.reachable_methods)
                == frozenset(cold.reachable_methods))

    def test_solver_refuses_a_state_directly(self):
        program = _program("wide-flat-64")
        config = AnalysisConfig.skipflow().with_kernel("arena")
        cold = SkipFlowAnalysis(program, config).run()
        with pytest.raises(ArenaKernelUnsupported,
                           match="only runs cold solves"):
            ArenaKernelSolver(program, config, state=cold.solver_state)

    def test_object_kernel_records_no_fallback(self):
        result = _solve("wide-flat-64", AnalysisConfig.skipflow())
        assert (result.kernel_ran, result.fallback) == ("object", None)

    def test_kernel_is_validated(self):
        with pytest.raises(ValueError):
            AnalysisConfig.skipflow().with_kernel("vectorized")
        assert KERNELS == ("object", "arena")


class TestPlantedArenaFault:
    """A refusal raised from inside ``solve`` is recorded, never swallowed."""

    @pytest.fixture(autouse=True)
    def _refusing_arena_kernel(self, monkeypatch):
        def refuse(self, roots=None):
            raise ArenaKernelUnsupported("planted fault")

        monkeypatch.setattr(ArenaKernelSolver, "solve", refuse)

    def test_fallback_runs_the_object_solver_and_says_why(self):
        config = AnalysisConfig.skipflow().with_kernel("arena")
        result = SkipFlowAnalysis(_program("wide-flat-64"), config).run()
        assert result.kernel_ran == "object"
        assert result.fallback == "planted fault"
        assert result.kernel_backend is None
        reference = _solve("wide-flat-64", AnalysisConfig.skipflow())
        assert _canonical(result) == _canonical(reference)
