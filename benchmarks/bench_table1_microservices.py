"""Table 1, Microservices block: PTA vs SkipFlow over the 9 microservice apps.

The paper reports reductions between 3.3% (Micronaut Helloworld) and 9.2%
(Quarkus Tika) with a 6.3% average; the assertions check that the synthetic
suite reproduces that band and that the smallest/largest benchmarks behave the
same way relative to each other.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, record_comparisons, reduction, run_suite

from repro.reporting.table import format_matrix_table, summarize_reductions
from repro.workloads.suites import microservices_suite


def test_table1_microservices(benchmark):
    specs = microservices_suite(scale=BENCH_SCALE)
    rows = benchmark.pedantic(run_suite, args=(specs,), rounds=1, iterations=1)
    record_comparisons(benchmark, rows)
    print()
    print(format_matrix_table(rows, title="Table 1 (Microservices block)"))

    for row in rows:
        assert (row.metric("reachable_methods", "SkipFlow")
                < row.metric("reachable_methods", "PTA"))

    summary = summarize_reductions(rows)
    # Paper: max 9.2%, min 3.3%, avg 6.3%.
    assert 3.0 < summary["avg"] < 12.0
    assert summary["max"] < 20.0

    by_name = {row.benchmark: row for row in rows}
    tika = reduction(by_name["quarkus-tika"])
    helloworld = reduction(by_name["micronaut-helloworld"])
    assert tika > helloworld
