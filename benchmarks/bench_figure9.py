"""Figure 9: all metrics normalized to the PTA baseline, one panel per suite.

The figure's message is that every metric lands at or below 1.0 for SkipFlow
(lower is better), with the exception of analysis time where the results are
inconclusive but close to 1.0 on average.  The assertions check exactly that.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, run_suite

from repro.reporting.figures import figure9_series, format_figure9, suite_averages
from repro.workloads.suites import dacapo_suite, microservices_suite, renaissance_suite

_SUITES = {
    "Renaissance": renaissance_suite,
    "DaCapo": dacapo_suite,
    "Microservices": microservices_suite,
}

#: Metrics that must improve (or stay equal) for every single benchmark.
_MONOTONE_METRICS = (
    "reachable_methods", "type_checks", "null_checks",
    "prim_checks", "poly_calls", "binary_size",
)


def _run_all_suites():
    return {
        name: run_suite(factory(scale=BENCH_SCALE))
        for name, factory in _SUITES.items()
    }


def test_figure9_normalized_metrics(benchmark):
    per_suite = benchmark.pedantic(_run_all_suites, rounds=1, iterations=1)
    all_method_reductions = []
    for suite_name, rows in per_suite.items():
        print()
        print(format_figure9(rows, suite_name))
        series = figure9_series(rows)
        for bench_name, metrics in series.items():
            for metric in _MONOTONE_METRICS:
                assert metrics[metric] <= 1.0, (
                    f"{suite_name}/{bench_name}: {metric} regressed ({metrics[metric]:.2f})"
                )
        averages = suite_averages(rows)
        all_method_reductions.append(1.0 - averages["reachable_methods"])
    # Across the three suites the average reachable-method reduction is ~9%.
    overall = sum(all_method_reductions) / len(all_method_reductions)
    assert 0.04 < overall < 0.25
