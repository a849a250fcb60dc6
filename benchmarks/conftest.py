"""Shared helpers for the benchmark harness.

Every table and figure of the paper's evaluation has one benchmark module:

========================  =====================================================
``bench_table1_dacapo``    Table 1, DaCapo block (8 benchmarks)
``bench_table1_micro``     Table 1, Microservices block (9 benchmarks)
``bench_table1_renaissance``  Table 1, Renaissance block (18 benchmarks)
``bench_figure9``          Figure 9 (normalized metrics per suite)
``bench_ablation_features``   Section 6 discussion: predicates vs primitives
``bench_ablation_noreturn``   Section 3: method invocations as predicates
``bench_solver_scaling``   Analysis-time scaling with program size
========================  =====================================================

The pytest-benchmark runs use a reduced ``BENCH_SCALE`` so the whole harness
finishes in a few minutes; the standalone ``run_table1.py`` / ``run_figure9.py``
scripts accept ``--scale`` for larger runs.
"""

from __future__ import annotations

import os
from typing import List

import pytest

from repro.engine import MatrixRow, ResultCache, run_specs
from repro.workloads.generator import BenchmarkSpec

#: Synthetic methods generated per thousand paper-reported methods during benchmarking.
BENCH_SCALE = 1.0

#: Environment knobs for the engine-backed harness: worker processes and an
#: optional shared result cache (both off by default so pytest-benchmark
#: timings keep measuring actual solves).
JOBS_ENV = "REPRO_BENCH_JOBS"
CACHE_ENV = "REPRO_BENCH_CACHE_DIR"


def run_suite(specs: List[BenchmarkSpec]) -> List[MatrixRow]:
    """Run the PTA/SkipFlow comparison for every benchmark of a suite."""
    jobs = int(os.environ.get(JOBS_ENV, "1"))
    cache_dir = os.environ.get(CACHE_ENV)
    cache = ResultCache(cache_dir) if cache_dir else None
    return run_specs(specs, jobs=jobs, cache=cache)


def reduction(row: MatrixRow) -> float:
    """SkipFlow's reachable-method reduction against PTA, in percent."""
    return row.reduction_percent("reachable_methods", "SkipFlow")


def record_comparisons(benchmark, rows: List[MatrixRow]) -> None:
    """Attach the per-benchmark reductions to the pytest-benchmark record."""
    benchmark.extra_info["reductions_percent"] = {
        row.benchmark: round(reduction(row), 2) for row in rows
    }


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE
