"""Engine halves with and without a program store.

A store-backed half is solved on the program the store attaches, and a
half without a store on its generated program's in-memory lowering; both
run on the arena kernel under every built-in saturation policy, and both
produce the report the PVPG walks produce (metrics and dead code).  The
payload carries no kernel name and no fallback: there is one kernel.
"""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import available_saturation_policies
from repro.engine import ProgramStore
from repro.engine.runner import (
    PAYLOAD_VERSION,
    _WORKER_PROGRAMS,
    _report_payload,
    solve_config,
)
from repro.workloads.generator import generate_benchmark, spec_from_reduction
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
def test_store_half_matches_under_every_builtin_policy(
        tmp_path, spec, saturation, walked_image_report):
    spec = SPECS[spec]
    config = AnalysisConfig.skipflow().with_saturation_policy(saturation, 8)
    store = ProgramStore(tmp_path)
    store.load_or_build(spec)
    half = solve_config(spec, config, store)
    assert half["program_from_store"]
    without_store = solve_config(spec, config)
    assert _counts(half) == _counts(without_store)
    reference = _report_payload(
        walked_image_report(generate_benchmark(spec), config, spec.name))
    assert _counts(half) == _counts({"report": reference})


def test_payload_records_no_kernel_and_no_fallback(tmp_path):
    store = ProgramStore(tmp_path)
    store.load_or_build(SPECS["table1"])
    half = solve_config(SPECS["table1"], AnalysisConfig.skipflow(), store)
    assert half["payload_version"] == PAYLOAD_VERSION == 5
    assert set(half) == {"payload_version", "benchmark", "suite",
                         "config_name", "program_from_store",
                         "report", "elapsed_seconds"}
