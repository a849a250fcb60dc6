"""Which kernel an engine half ran on, and no silent fallback.

A store-backed half is solved on the program the store attaches, under the
arena kernel.  When the arena kernel refuses the solve — here, a planted
custom scheduling policy it has no mirror for — the object kernel runs the
half over the attached program, and the payload and its ``ReportView`` say
so (``kernel_ran`` / ``fallback``) instead of hiding it.  The policy is
registered into a private copy of the registry, so nothing leaks.
"""

from collections import deque

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import scheduling as scheduling_module
from repro.engine import ProgramStore, run_config_matrix
from repro.engine.runner import _WORKER_PROGRAMS, solve_config
from repro.workloads.generator import spec_from_reduction
from repro.workloads.suites import wide_hierarchy_suite


class StackScheduling:
    """Newest-first: a scheduling the arena kernel has no mirror for."""

    name = "stack"

    def __init__(self):
        self._stack = deque()

    def push(self, flow):
        self._stack.append(flow)

    def pop(self):
        return self._stack.pop()

    def __len__(self):
        return len(self._stack)


SPECS = {
    "table1": spec_from_reduction(name="kernel-spec", suite="test",
                                  total_methods=90, reduction_percent=10.0),
    "wide": next(spec for spec in wide_hierarchy_suite()
                 if spec.name == "wide-flat-64"),
}


@pytest.fixture(autouse=True)
def _planted_policy(monkeypatch):
    monkeypatch.setattr(scheduling_module, "_SCHEDULING_POLICIES",
                        dict(scheduling_module._SCHEDULING_POLICIES))
    scheduling_module.register_scheduling_policy("stack", StackScheduling)
    _WORKER_PROGRAMS.clear()


def _counts(payload):
    return {key: value for key, value in payload["report"].items()
            if "time" not in key}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_custom_policy_half_reports_the_object_fallback(tmp_path, spec):
    spec = SPECS[spec]
    config = AnalysisConfig.skipflow().with_scheduling("stack")
    store = ProgramStore(tmp_path)
    store.load_or_build(spec)
    half = solve_config(spec, config, store)
    assert half["program_from_store"]
    assert half["kernel_ran"] == "object"
    assert "has no arena mirror" in half["fallback"]
    without_store = solve_config(spec, config)
    assert (without_store["kernel_ran"], without_store["fallback"]) == ("object", None)
    assert _counts(half) == _counts(without_store)


def test_report_view_exposes_kernel_and_fallback(tmp_path):
    store = ProgramStore(tmp_path)
    configs = [AnalysisConfig.skipflow(),
               AnalysisConfig.skipflow().with_scheduling("stack")]
    row = run_config_matrix([SPECS["table1"]], configs,
                            names=["fifo", "stack"], program_store=store)[0]
    assert (row.report("fifo").kernel_ran, row.report("fifo").fallback) == ("arena", None)
    assert row.report("stack").kernel_ran == "object"
    assert "has no arena mirror" in row.report("stack").fallback
    assert row.report("stack").metrics == row.report("fifo").metrics
