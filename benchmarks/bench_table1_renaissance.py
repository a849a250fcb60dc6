"""Table 1, Renaissance block: PTA vs SkipFlow over the 18 Renaissance benchmarks.

The paper reports reductions between 3.7% (reactors) and 17.2% (chi-square)
with an 8.4% average; the Spark-based benchmarks (als, chi-square, dec-tree,
log-regression) are the biggest winners.  The assertions check those ordering
relations on the synthetic suite.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, record_comparisons, reduction, run_suite

from repro.reporting.table import format_matrix_table, summarize_reductions
from repro.workloads.suites import renaissance_suite

_SPARK_BENCHMARKS = ("als", "chi-square", "dec-tree", "log-regression")


def test_table1_renaissance(benchmark):
    specs = renaissance_suite(scale=BENCH_SCALE)
    rows = benchmark.pedantic(run_suite, args=(specs,), rounds=1, iterations=1)
    record_comparisons(benchmark, rows)
    print()
    print(format_matrix_table(rows, title="Table 1 (Renaissance block)"))

    for row in rows:
        assert (row.metric("reachable_methods", "SkipFlow")
                < row.metric("reachable_methods", "PTA"))

    summary = summarize_reductions(rows)
    # Paper: max 17.2%, min 3.7%, avg 8.4%.
    assert 4.0 < summary["avg"] < 16.0

    by_name = {row.benchmark: row for row in rows}
    spark_avg = sum(
        reduction(by_name[name]) for name in _SPARK_BENCHMARKS
    ) / len(_SPARK_BENCHMARKS)
    others = [row for row in rows if row.benchmark not in _SPARK_BENCHMARKS]
    others_avg = sum(reduction(row) for row in others) / len(others)
    assert spark_avg > others_avg
