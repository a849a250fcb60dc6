"""Analysis-time scaling: solver throughput as the application grows.

The paper's pitch is that SkipFlow stays "as lightweight and scalable as
possible": its analysis time tracks the baseline's even though it does more
work per flow, because it analyzes fewer methods.  This benchmark measures
both configurations on applications of increasing size and reports methods
analyzed per second.  The program is lowered before the timed rounds (every
config shares one memoized lowering), so each round times the solve only;
``test_lowering_scaling`` times the lowering itself over the same sizes.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.ir.arena import lower, lowered_program
from repro.workloads.generator import generate_benchmark, spec_from_reduction

_SIZES = (100, 300, 600)


def _build_program(size: int):
    spec = spec_from_reduction(
        name=f"scaling-{size}", suite="scaling",
        total_methods=size, reduction_percent=10.0,
    )
    return generate_benchmark(spec)


@pytest.mark.parametrize("size", _SIZES)
@pytest.mark.parametrize("config_name", ["PTA", "SkipFlow"])
def test_solver_scaling(benchmark, size, config_name):
    program = _build_program(size)
    config = (AnalysisConfig.baseline_pta() if config_name == "PTA"
              else AnalysisConfig.skipflow())
    lowered_program(program)

    def run_analysis():
        return SkipFlowAnalysis(program, config).run()

    result = benchmark.pedantic(run_analysis, rounds=3, iterations=1)
    methods_per_second = (result.reachable_method_count
                          / max(result.analysis_time_seconds, 1e-9))
    benchmark.extra_info["reachable_methods"] = result.reachable_method_count
    benchmark.extra_info["methods_per_second"] = round(methods_per_second)
    benchmark.extra_info["solver_steps"] = result.steps
    assert result.reachable_method_count > 0


@pytest.mark.parametrize("size", _SIZES)
def test_lowering_scaling(benchmark, size):
    program = _build_program(size)
    lowered = benchmark.pedantic(lower, args=(program,), rounds=3,
                                 iterations=1)
    benchmark.extra_info["flows"] = lowered.num_flows
    benchmark.extra_info["methods"] = lowered.num_methods
    assert lowered.num_methods == len(program.methods)
