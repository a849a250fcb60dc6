"""Which kernel an engine half ran on.

No config names a kernel: a store-backed half is solved on the program the
store attaches, so it runs on the arena kernel under every built-in
saturation policy, and a half without a store runs on the object kernel.  Both produce the same report, and the payload records only which
kernel ran (``kernel_ran``) — there is no fallback to report.
"""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import available_saturation_policies
from repro.engine import ProgramStore
from repro.engine.runner import PAYLOAD_VERSION, _WORKER_PROGRAMS, solve_config
from repro.workloads.generator import spec_from_reduction
from repro.workloads.suites import wide_hierarchy_suite

SPECS = {
    "table1": spec_from_reduction(name="kernel-spec", suite="test",
                                  total_methods=90, reduction_percent=10.0),
    "wide": next(spec for spec in wide_hierarchy_suite()
                 if spec.name == "wide-flat-64"),
}


@pytest.fixture(autouse=True)
def _fresh_worker_memo():
    _WORKER_PROGRAMS.clear()
    yield
    _WORKER_PROGRAMS.clear()


def _counts(payload):
    return {key: value for key, value in payload["report"].items()
            if "time" not in key}


@pytest.mark.parametrize("saturation", available_saturation_policies())
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_store_half_runs_on_arena_under_every_builtin_policy(
        tmp_path, spec, saturation):
    spec = SPECS[spec]
    config = AnalysisConfig.skipflow().with_saturation_policy(saturation, 8)
    store = ProgramStore(tmp_path)
    store.load_or_build(spec)
    half = solve_config(spec, config, store)
    assert half["program_from_store"]
    assert half["kernel_ran"] == "arena"
    without_store = solve_config(spec, config)
    assert without_store["kernel_ran"] == "object"
    assert _counts(half) == _counts(without_store)


def test_payload_records_the_kernel_and_no_fallback(tmp_path):
    store = ProgramStore(tmp_path)
    store.load_or_build(SPECS["table1"])
    half = solve_config(SPECS["table1"], AnalysisConfig.skipflow(), store)
    assert half["payload_version"] == PAYLOAD_VERSION == 4
    assert set(half) == {"payload_version", "benchmark", "suite",
                         "config_name", "program_from_store", "kernel_ran",
                         "report", "elapsed_seconds"}
