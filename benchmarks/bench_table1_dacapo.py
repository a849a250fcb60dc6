"""Table 1, DaCapo block: PTA vs SkipFlow over the 8 DaCapo-like benchmarks.

Regenerates the DaCapo rows of Table 1 (analysis time, total time, reachable
methods, type/null/primitive checks, poly calls, binary size) and checks that
the qualitative shape of the paper's results holds: SkipFlow reduces the
number of reachable methods for every benchmark, ``sunflow`` is the extreme
outlier, and the suite-average reduction is in the double-digit percent range.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, record_comparisons, reduction, run_suite

from repro.reporting.table import format_matrix_table, summarize_reductions
from repro.workloads.suites import dacapo_suite


def test_table1_dacapo(benchmark):
    specs = dacapo_suite(scale=BENCH_SCALE)
    rows = benchmark.pedantic(run_suite, args=(specs,), rounds=1, iterations=1)
    record_comparisons(benchmark, rows)
    print()
    print(format_matrix_table(rows, title="Table 1 (DaCapo block)"))

    by_name = {row.benchmark: row for row in rows}
    # Every benchmark improves.
    for row in rows:
        assert (row.metric("reachable_methods", "SkipFlow")
                < row.metric("reachable_methods", "PTA"))
    # Sunflow is the extreme outlier (paper: 52.3%).
    sunflow = reduction(by_name["sunflow"])
    assert sunflow > 35.0
    assert sunflow == max(reduction(row) for row in rows)
    # The suite average reduction has the paper's order of magnitude (13.3%).
    summary = summarize_reductions(rows)
    assert 5.0 < summary["avg"] < 30.0
    # Counter metrics and binary size follow the same trend.
    for row in rows:
        assert row.normalized("poly_calls", "SkipFlow") <= 1.0
        assert row.normalized("binary_size", "SkipFlow") < 1.0
