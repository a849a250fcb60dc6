"""The ``register_*_policy`` extension points, end to end.

The built-in schedulings and sentinels are not the only ones a solve can
use: a policy registered at run time is listed, accepted by
``AnalysisConfig``, and run by the object solver.  The arena kernel mirrors
only the built-ins, so under ``kernel="arena"`` a registered policy runs on
the object solver instead, and the result records the arena kernel's
refusal in ``fallback``.  Each test registers into a private copy of the
registry, so nothing leaks into other tests.
"""

from collections import deque

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import (
    ClosedWorldSaturation,
    available_saturation_policies,
    available_scheduling_policies,
)
from repro.core.kernel import saturation as saturation_module
from repro.core.kernel import scheduling as scheduling_module
from repro.lang import compile_source
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import suite_by_name

SOURCE = """
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


class StackScheduling:
    """Newest-first: a fair schedule that no built-in provides."""

    name = "stack"

    def __init__(self):
        self._stack = deque()

    def push(self, flow):
        self._stack.append(flow)

    def pop(self):
        return self._stack.pop()

    def __len__(self):
        return len(self._stack)


class EchoClosedWorld(ClosedWorldSaturation):
    """The closed-world top under another name and class."""

    name = "echo-closed-world"


def _wide(name):
    spec = next(spec for spec in suite_by_name("WideHierarchy")
                if spec.name == name)
    return generate_benchmark(spec)


PROGRAMS = {
    "feature-flag": lambda: compile_source(SOURCE),
    "wide-flat-64": lambda: _wide("wide-flat-64"),
    "composed-duo-112": lambda: _wide("composed-duo-112"),
}


@pytest.fixture(autouse=True)
def _private_registries(monkeypatch):
    monkeypatch.setattr(scheduling_module, "_SCHEDULING_POLICIES",
                        dict(scheduling_module._SCHEDULING_POLICIES))
    monkeypatch.setattr(saturation_module, "_SATURATION_POLICIES",
                        dict(saturation_module._SATURATION_POLICIES))
    scheduling_module.register_scheduling_policy("stack", StackScheduling)
    saturation_module.register_saturation_policy("echo-closed-world",
                                                 EchoClosedWorld)


def _stack_config():
    return AnalysisConfig.skipflow().with_scheduling("stack")


def _echo_config():
    return AnalysisConfig.skipflow().with_saturation_policy(
        "echo-closed-world", 4)


def _closed_config():
    return AnalysisConfig.skipflow().with_saturation_policy("closed-world", 4)


def _outputs(result):
    return (frozenset(result.reachable_methods), sorted(result.call_edges()))


def test_registered_policies_are_listed_and_accepted():
    assert available_scheduling_policies() == ("fifo", "degree", "stack")
    assert "echo-closed-world" in available_saturation_policies()
    assert _stack_config().solver_policy.scheduling == "stack"
    assert _echo_config().solver_policy.saturation == "echo-closed-world"


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_registered_scheduling_reaches_the_fifo_fixpoint(program):
    fifo = SkipFlowAnalysis(PROGRAMS[program](),
                            AnalysisConfig.skipflow()).run()
    stack = SkipFlowAnalysis(PROGRAMS[program](), _stack_config()).run()
    assert _outputs(stack) == _outputs(fifo)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_registered_sentinel_runs_like_the_one_it_copies(program):
    closed = SkipFlowAnalysis(PROGRAMS[program](), _closed_config()).run()
    echo = SkipFlowAnalysis(PROGRAMS[program](), _echo_config()).run()
    assert _outputs(echo) == _outputs(closed)
    assert echo.stats.saturated_flows == closed.stats.saturated_flows


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("make_config, reason", [
    (_stack_config, "has no arena mirror"),
    (_echo_config, "not proven bit-identical"),
], ids=["scheduling", "saturation"])
def test_arena_kernel_hands_registered_policies_to_the_object_solver(
        program, make_config, reason):
    config = make_config()
    reference = SkipFlowAnalysis(PROGRAMS[program](), config).run()
    result = SkipFlowAnalysis(PROGRAMS[program](),
                              config.with_kernel("arena")).run()
    assert result.kernel_ran == "object"
    assert reason in result.fallback
    assert result.kernel_backend is None
    assert _outputs(result) == _outputs(reference)
    assert result.steps == reference.steps
