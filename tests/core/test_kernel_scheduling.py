"""Scheduling-policy equivalence: every fair order reaches the same fixpoint.

The chaotic-iteration argument (see :mod:`repro.core.kernel`) promises that
worklist order changes solver *effort* only.  These tests pin that promise
down hard: for every registered scheduling policy the reachable set, the
linked call edges, and the final value state of every flow must be identical
to the ``fifo`` reference — on the tier-1 example programs and on a
wide-hierarchy benchmark spec — and ``fifo`` itself must reproduce the
seed's exact step counts (the checked-in regression baseline).
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import available_scheduling_policies
from repro.lang import compile_source
from repro.workloads.generator import (
    BenchmarkSpec,
    HierarchySpec,
    generate_benchmark,
    spec_from_reduction,
)

QUICKSTART_SOURCE = """
class Config {
    boolean isTelemetryEnabled() { return false; }
}
class TelemetryService {
    void start() { MetricsLibrary.initialize(); }
}
class MetricsLibrary {
    static void initialize() { MetricsLibrary.connect(); }
    static void connect() { }
}
class Application {
    void run(Config config) {
        if (config.isTelemetryEnabled()) {
            TelemetryService telemetry = new TelemetryService();
            telemetry.start();
        }
        this.serveRequests();
    }
    void serveRequests() { }
}
class Main {
    static void main() {
        Application app = new Application();
        app.run(new Config());
    }
}
"""

_IMPL_COUNT = 10
MEGAMORPHIC_SOURCE = (
    "class Base { void visit() { } }\n"
    + "".join(f"class Impl{i} extends Base {{ void visit() {{ }} }}\n"
              for i in range(_IMPL_COUNT))
    + "class Sink { void accept(Base b) { b.visit(); } }\n"
    + "class Main { static void main() {\n"
    + "    Sink s = new Sink();\n"
    + "".join(f"    s.accept(new Impl{i}());\n" for i in range(_IMPL_COUNT))
    + "} }\n"
)

WIDE_SPEC = BenchmarkSpec(
    name="sched-wide", suite="test", core_methods=25, guarded_modules=(),
    hierarchies=(HierarchySpec(depth=2, fanout=5, call_sites=4),))

COMPOSED_SPEC = BenchmarkSpec(
    name="sched-composed", suite="test", core_methods=20, guarded_modules=(),
    hierarchies=(HierarchySpec(depth=1, fanout=12, call_sites=3),
                 HierarchySpec(depth=2, fanout=4, call_sites=3)),
    compose_hierarchies=True)

BASELINE_PATH = (Path(__file__).resolve().parents[2]
                 / "benchmarks" / "baselines" / "solver_steps.json")


def fixpoint_signature(result):
    """Everything a schedule must not change: reachability, edges, states.

    Value states are hash-consed, so states from different solver runs in
    one process compare by identity/equality directly; flows are matched by
    (method, label, kind) with a multiset to tolerate duplicate labels.
    """
    pvpg = result.pvpg
    edges = set()
    states = Counter()
    for graph in pvpg.methods.values():
        for flow in graph.flows:
            states[(graph.qualified_name, flow.label, flow.kind.value,
                    flow.state)] += 1
        for invoke in graph.invoke_flows:
            for callee in invoke.linked_callees:
                edges.add((graph.qualified_name, invoke.label, callee))
    for name, field_flow in pvpg.field_flows.items():
        states[("<fields>", name, field_flow.kind.value,
                field_flow.state)] += 1
    return frozenset(result.reachable_methods), edges, states


def _programs():
    return {
        "quickstart": lambda: compile_source(QUICKSTART_SOURCE),
        "megamorphic": lambda: compile_source(MEGAMORPHIC_SOURCE),
        "wide-hierarchy": lambda: generate_benchmark(WIDE_SPEC),
        "composed": lambda: generate_benchmark(COMPOSED_SPEC),
    }


class TestEquivalence:
    @pytest.mark.parametrize("config_name", ["skipflow", "baseline_pta"])
    def test_every_schedule_reaches_the_identical_fixpoint(self, config_name):
        base_config = getattr(AnalysisConfig, config_name)()
        for label, make_program in _programs().items():
            reference = SkipFlowAnalysis(make_program(), base_config).run()
            expected = fixpoint_signature(reference)
            for scheduling in available_scheduling_policies():
                result = SkipFlowAnalysis(
                    make_program(),
                    base_config.with_scheduling(scheduling)).run()
                assert fixpoint_signature(result) == expected, (
                    f"{scheduling} diverged from fifo on {label}")

    def test_schedules_agree_under_saturation_too(self):
        """With a cutoff the fixpoint is coarser but still schedule-invariant."""
        config = AnalysisConfig.skipflow().with_saturation_policy(
            "allocated-type", 4)
        reference = SkipFlowAnalysis(generate_benchmark(WIDE_SPEC), config).run()
        for scheduling in available_scheduling_policies():
            result = SkipFlowAnalysis(
                generate_benchmark(WIDE_SPEC),
                config.with_scheduling(scheduling)).run()
            assert (result.reachable_methods == reference.reachable_methods)
            assert result.stats.saturated_flows > 0

    def test_schedules_really_differ_in_effort(self):
        """The policies are not all secretly fifo: degree reorders the work."""
        program_steps = {
            scheduling: SkipFlowAnalysis(
                generate_benchmark(WIDE_SPEC),
                AnalysisConfig.skipflow().with_scheduling(scheduling)).run().steps
            for scheduling in ("fifo", "degree")
        }
        assert program_steps["fifo"] != program_steps["degree"]


class TestFifoIsTheSeed:
    def test_explicit_fifo_equals_default_config(self):
        spec = spec_from_reduction(name="sched-seed", suite="test",
                                   total_methods=90, reduction_percent=10.0)
        default = SkipFlowAnalysis(generate_benchmark(spec),
                                   AnalysisConfig.skipflow()).run()
        explicit = SkipFlowAnalysis(
            generate_benchmark(spec),
            AnalysisConfig.skipflow().with_scheduling("fifo")).run()
        assert explicit.steps == default.steps
        assert explicit.stats.joins == default.stats.joins
        assert fixpoint_signature(explicit) == fixpoint_signature(default)

    def test_fifo_reproduces_the_checked_in_seed_steps(self):
        """The regression baseline was recorded by the seed solver; fifo must
        land on those exact counts (the CI gate checks all sizes, this test
        pins the smallest one into the unit suite)."""
        baseline = json.loads(BASELINE_PATH.read_text())
        spec = spec_from_reduction(name="scaling-100", suite="scaling",
                                   total_methods=100, reduction_percent=10.0)
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            result = SkipFlowAnalysis(
                generate_benchmark(spec),
                config.with_scheduling("fifo")).run()
            assert result.steps == baseline[f"scaling-100/{config.name}"]
