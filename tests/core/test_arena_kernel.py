"""The arena propagation kernel: bit-identical to the object kernel.

A cold solve of an attached arena program runs on the flat integer-id
tables of :mod:`repro.ir.arena` instead of the object-graph PVPG; its
contract is *exact* equality of every canonical output — reachable sets,
call edges, step/join/transfer counters, saturated-flow counts, and the
image layer's metrics and per-method dead-code reports — under every
saturation policy, on generated benchmarks from the paper (tier-1), wide,
and composed suites alike.  Each cell solves the plain program (object
kernel) and its attached freeze (arena kernel); the first three grid tests
also solve the in-memory lowering, whose columns are lists where an attached
buffer's are ``memoryview`` slices.  The grid here is the in-repo anchor for
the CI gates (solver-steps baseline, fuzz ``kernel-divergence`` invariant).
"""

from collections import Counter
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


def _solve(key, config):
    result = SkipFlowAnalysis(_program(key), config).run()
    assert result.kernel_ran == "object"
    return result


def _solve_arena(key, config, columns="attached"):
    make, column_type = COLUMNS[columns]
    program = make(key)
    assert isinstance(program.arena.use_val, column_type)
    result = SkipFlowAnalysis(program, config).run()
    assert result.kernel_ran == "arena"
    return result


#: Every built-in cutoff sentinel (``off`` has no sentinel to mirror).
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


def _fixpoint(result):
    """Reachability, call edges and every flow's final state."""
    return frozenset(result.reachable_methods), _flow_states(result)


class TestBitIdenticalGrid:
    @pytest.mark.parametrize("columns", sorted(COLUMNS))
    @pytest.mark.parametrize("saturation", available_saturation_policies())
    def test_full_grid_on_wide(self, saturation, columns):
        config = AnalysisConfig.skipflow()
        if saturation != "off":
            config = config.with_saturation_policy(saturation, 4)
        reference = _solve("wide-flat-64", config)
        arena = _solve_arena("wide-flat-64", config, columns)
        assert _canonical(arena) == _canonical(reference)

    @pytest.mark.parametrize("columns", sorted(COLUMNS))
    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    def test_default_config_on_tier1_and_composed(self, workload, columns):
        config = AnalysisConfig.skipflow()
        reference = _solve(workload, config)
        arena = _solve_arena(workload, config, columns)
        assert _canonical(arena) == _canonical(reference)

    @pytest.mark.parametrize("columns", sorted(COLUMNS))
    @pytest.mark.parametrize("workload", ["dacapo-pmd", "composed-duo-112"])
    @pytest.mark.parametrize("saturation", CUTOFFS)
    def test_saturations_on_tier1_and_composed(self, workload, saturation,
                                               columns):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy(saturation, 8))
        reference = _solve(workload, config)
        arena = _solve_arena(workload, config, columns)
        assert _canonical(arena) == _canonical(reference)

    @pytest.mark.parametrize("workload", sorted(WIDE_SPECS))
    @pytest.mark.parametrize("saturation", CUTOFFS)
    def test_every_wide_spec_at_the_lowest_study_threshold(self, workload,
                                                            saturation):
        """Threshold 2, the policy study's lowest, saturates flows on every
        hierarchy shape; both kernels must still agree bit for bit."""
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy(saturation, 2))
        reference = _solve(workload, config)
        arena = _solve_arena(workload, config)
        assert reference.stats.saturated_flows > 0
        assert _canonical(arena) == _canonical(reference)

    def test_baseline_pta_is_bit_identical_too(self):
        config = AnalysisConfig.baseline_pta()
        reference = _solve("dacapo-pmd", config)
        arena = _solve_arena("dacapo-pmd", config)
        assert _canonical(arena) == _canonical(reference)


class TestPerFlowStates:
    """Beyond the canonical outputs: every flow ends in the same state."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("saturation,threshold", (("off", None),) + tuple(
        (saturation, threshold) for saturation in CUTOFFS
        for threshold in (4, 1)))
    def test_flow_states_match_the_object_kernel(self, workload, saturation,
                                                  threshold):
        """Threshold 1 collapses every flow that sees a second type, so the
        saturated bits and sentinel states are checked at scale too."""
        config = AnalysisConfig.skipflow()
        if saturation != "off":
            config = config.with_saturation_policy(saturation, threshold)
        reference = _solve(workload, config)
        arena = _solve_arena(workload, config)
        assert _flow_states(arena) == _flow_states(reference)


class TestImageFastPath:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_image_reports_identical(self, workload):
        """The arena-native image counters equal the PVPG-walking ones."""
        config = AnalysisConfig.skipflow()
        reference = NativeImageBuilder(
            _program(workload), config,
            benchmark_name=workload).build()
        arena = NativeImageBuilder(
            _attached(workload), config, benchmark_name=workload).build()
        assert arena.result.kernel_ran == "arena"
        assert (replace(arena.metrics, analysis_time_seconds=0.0)
                == replace(reference.metrics, analysis_time_seconds=0.0))
        assert arena.binary_size_bytes == reference.binary_size_bytes
        assert (sorted(arena.dead_code.methods)
                == sorted(reference.dead_code.methods))
        for name, dead in reference.dead_code.methods.items():
            assert arena.dead_code.methods[name] == dead


class TestLazyInflation:
    def test_pvpg_and_state_inflate_on_demand(self):
        result = _solve_arena("wide-flat-64", AnalysisConfig.skipflow())
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


class TestKernelSelection:
    """The program and the solve pick the kernel; every pick agrees.

    Plain program → object, attached arena solved cold → arena, attached
    arena resumed from a state → object; all three land on the same
    fixpoint (reachability, call edges and every flow's state, plus each
    flow's saturation bit).
    """

    @pytest.mark.parametrize("saturation", available_saturation_policies())
    def test_each_route_reaches_the_same_fixpoint(self, saturation):
        config = AnalysisConfig.skipflow()
        if saturation != "off":
            config = config.with_saturation_policy(saturation, 4)
        self._assert_routes_agree(_program("wide-flat-64"),
                                  _attached("wide-flat-64"), config)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS) + ["feature-flag"])
    def test_each_route_agrees_on_every_workload(self, workload):
        """The default config over each suite family and a compiled source."""
        if workload == "feature-flag":
            program = compile_source(FEATURE_FLAG_SOURCE)
            attached = open_program(freeze(program))
        else:
            program, attached = _program(workload), _attached(workload)
        self._assert_routes_agree(program, attached, AnalysisConfig.skipflow())

    @staticmethod
    def _assert_routes_agree(program, attached, config):
        plain = SkipFlowAnalysis(program, config).run()
        cold = SkipFlowAnalysis(attached, config).run()
        resumed = SkipFlowAnalysis(
            attached, config, state=cold.solver_state.fork()).run()
        assert [result.kernel_ran for result in (plain, cold, resumed)] == [
            "object", "arena", "object"]
        assert resumed.kernel_backend is None
        expected = _fixpoint(plain)
        assert _fixpoint(cold) == expected
        assert _fixpoint(resumed) == expected


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
        reference = _solve(workload, config)
        assert (frozenset(solver.reachable), solver.steps, solver.joins,
                solver.transfers, solver.saturated_flows) == (
            frozenset(reference.reachable_methods), reference.steps,
            reference.stats.joins, reference.stats.transfers,
            reference.stats.saturated_flows)
