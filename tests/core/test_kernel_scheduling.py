"""Worklist order: both kernels drain oldest-first, the seed solver's order.

The worklist order is not configurable.  ``fifo`` is the order the seed
solver used, so the default configuration must reproduce the seed's exact
step counts (the checked-in regression baseline).

The chaotic-iteration argument (see :mod:`repro.core.kernel`) promises that
the drain order changes solver *effort* only.  These tests pin that promise
down without a knob: they swap each kernel's worklist ``deque`` for a
test-only double that drains newest-first or in a seeded random order, and
require the reachable set, the linked call edges and the final value state
of every flow to equal the oldest-first reference — on small example
programs and on wide and composed benchmark specs, on both kernels.
"""

import json
import random
from collections import deque
from pathlib import Path

import pytest

import repro.core.kernel.arena_kernel as arena_kernel
import repro.core.solver as object_solver
from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.ir.arena import freeze, open_program
from repro.lang import compile_source
from repro.workloads.generator import (
    BenchmarkSpec,
    HierarchySpec,
    generate_benchmark,
    spec_from_reduction,
)
from tests.conftest import fixpoint_signature

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


class NewestFirst(deque):
    """A worklist double that drains newest-first (a stack)."""

    def popleft(self):
        return self.pop()


class SeededRandom(deque):
    """A worklist double that drains in a seeded random order."""

    def __init__(self, *args):
        super().__init__(*args)
        self._rng = random.Random(0)

    def popleft(self):
        index = self._rng.randrange(len(self))
        self.rotate(-index)
        item = super().popleft()
        self.rotate(index)
        return item


ORDERS = {"newest-first": NewestFirst, "seeded-random": SeededRandom}


def solve_in_order(program, config, order, monkeypatch):
    """Run one analysis with both kernels' queues replaced by ``order``.

    Each kernel module builds its worklist and link queue from the module's
    ``deque`` name, so patching that name reorders every drain of the solve.
    """
    with monkeypatch.context() as patch:
        patch.setattr(object_solver, "deque", ORDERS[order])
        patch.setattr(arena_kernel, "deque", ORDERS[order])
        return SkipFlowAnalysis(program, config).run()


def _programs():
    return {
        "quickstart": lambda: compile_source(QUICKSTART_SOURCE),
        "megamorphic": lambda: compile_source(MEGAMORPHIC_SOURCE),
        "wide-hierarchy": lambda: generate_benchmark(WIDE_SPEC),
        "composed": lambda: generate_benchmark(COMPOSED_SPEC),
    }


def _routed(program, kernel):
    """The plain program (object kernel) or its attached freeze (arena)."""
    return program if kernel == "object" else open_program(freeze(program))


class TestEquivalence:
    @pytest.mark.parametrize("kernel", ["object", "arena"])
    @pytest.mark.parametrize("config_name", ["skipflow", "baseline_pta"])
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_every_order_reaches_the_identical_fixpoint(
            self, order, config_name, kernel, monkeypatch):
        config = getattr(AnalysisConfig, config_name)()
        for label, make_program in _programs().items():
            reference = SkipFlowAnalysis(make_program(), config).run()
            assert reference.kernel_ran == "object"
            expected = fixpoint_signature(reference.pvpg,
                                          reference.reachable_methods)
            result = solve_in_order(_routed(make_program(), kernel), config,
                                    order, monkeypatch)
            assert result.kernel_ran == kernel
            signature = fixpoint_signature(result.pvpg,
                                           result.reachable_methods)
            assert signature == expected, (
                f"{order} diverged from oldest-first on {label}")

    @pytest.mark.parametrize("kernel", ["object", "arena"])
    @pytest.mark.parametrize(
        "saturation", ["allocated-type", "allocated-type-reachable"])
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_orders_agree_under_saturation_too(self, order, saturation,
                                               kernel, monkeypatch):
        """With a cutoff the fixpoint is coarser but still order-invariant."""
        config = AnalysisConfig.skipflow().with_saturation_policy(
            saturation, 4)
        reference = SkipFlowAnalysis(generate_benchmark(WIDE_SPEC),
                                     config).run()
        assert reference.stats.saturated_flows > 0
        result = solve_in_order(_routed(generate_benchmark(WIDE_SPEC), kernel),
                                config, order, monkeypatch)
        assert result.kernel_ran == kernel
        assert (result.stats.saturated_flows
                == reference.stats.saturated_flows)
        assert (fixpoint_signature(result.pvpg, result.reachable_methods)
                == fixpoint_signature(reference.pvpg, reference.reachable_methods))

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_orders_really_differ_in_effort(self, order, monkeypatch):
        """The doubles are not secretly oldest-first: they reorder the work."""
        config = AnalysisConfig.skipflow()
        reference = SkipFlowAnalysis(generate_benchmark(WIDE_SPEC),
                                     config).run()
        result = solve_in_order(generate_benchmark(WIDE_SPEC), config, order,
                                monkeypatch)
        assert result.steps != reference.steps


class TestFifoIsTheSeed:
    def test_fifo_reproduces_the_checked_in_seed_steps(self):
        """The regression baseline was recorded by the seed solver; fifo must
        land on those exact counts (the CI gate checks all sizes, this test
        pins the smallest one into the unit suite)."""
        baseline = json.loads(BASELINE_PATH.read_text())
        spec = spec_from_reduction(name="scaling-100", suite="scaling",
                                   total_methods=100, reduction_percent=10.0)
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            result = SkipFlowAnalysis(generate_benchmark(spec), config).run()
            assert result.steps == baseline[f"scaling-100/{config.name}"]
