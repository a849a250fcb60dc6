"""Comparison records: one benchmark, baseline vs SkipFlow."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.analysis import AnalysisConfig
from repro.image.builder import ImageBuildReport, NativeImageBuilder
from repro.workloads.generator import BenchmarkSpec, generate_benchmark

#: The metric columns of Table 1, in paper order.
METRIC_NAMES = (
    "analysis_time",
    "total_time",
    "reachable_methods",
    "type_checks",
    "null_checks",
    "prim_checks",
    "poly_calls",
    "binary_size",
)


def _metric_value(report: ImageBuildReport, metric: str) -> float:
    if metric == "analysis_time":
        return report.analysis_time_seconds
    if metric == "total_time":
        return report.total_time_seconds
    if metric == "reachable_methods":
        return float(report.metrics.reachable_methods)
    if metric == "type_checks":
        return float(report.metrics.type_checks)
    if metric == "null_checks":
        return float(report.metrics.null_checks)
    if metric == "prim_checks":
        return float(report.metrics.primitive_checks)
    if metric == "poly_calls":
        return float(report.metrics.poly_calls)
    if metric == "binary_size":
        return float(report.binary_size_bytes)
    raise KeyError(f"unknown metric {metric!r}")


@dataclass
class BenchmarkComparison:
    """Baseline and SkipFlow build reports for one benchmark."""

    benchmark: str
    suite: str
    baseline: ImageBuildReport
    skipflow: ImageBuildReport
    spec: Optional[BenchmarkSpec] = None

    def metric(self, name: str, configuration: str = "skipflow") -> float:
        report = self.skipflow if configuration == "skipflow" else self.baseline
        return _metric_value(report, name)

    def normalized(self, name: str) -> float:
        """SkipFlow metric normalized to the baseline (values < 1.0 are improvements)."""
        base = _metric_value(self.baseline, name)
        if base == 0:
            return 1.0
        return _metric_value(self.skipflow, name) / base

    def reduction_percent(self, name: str) -> float:
        """Percentage reduction of a metric relative to the baseline."""
        return (1.0 - self.normalized(name)) * 100.0

    @property
    def reachable_method_reduction_percent(self) -> float:
        return self.reduction_percent("reachable_methods")

    def as_dict(self) -> Dict[str, float]:
        row: Dict[str, float] = {"benchmark": self.benchmark, "suite": self.suite}
        for metric in METRIC_NAMES:
            row[f"pta_{metric}"] = _metric_value(self.baseline, metric)
            row[f"skipflow_{metric}"] = _metric_value(self.skipflow, metric)
            row[f"reduction_{metric}_percent"] = self.reduction_percent(metric)
        return row


def compare_configurations(spec: BenchmarkSpec,
                           baseline_config: Optional[AnalysisConfig] = None,
                           skipflow_config: Optional[AnalysisConfig] = None
                           ) -> BenchmarkComparison:
    """Generate one benchmark and build it with both configurations.

    Both builds share the one generated program, and so its one in-memory
    lowering (image builds never mutate a program without reflection).
    """
    program = generate_benchmark(spec)
    baseline_config = baseline_config or AnalysisConfig.baseline_pta()
    skipflow_config = skipflow_config or AnalysisConfig.skipflow()
    baseline = NativeImageBuilder(
        program, baseline_config, benchmark_name=spec.name).build()
    skipflow = NativeImageBuilder(
        program, skipflow_config, benchmark_name=spec.name).build()
    return BenchmarkComparison(
        benchmark=spec.name, suite=spec.suite, baseline=baseline,
        skipflow=skipflow, spec=spec,
    )


def compare_suite(specs: Iterable[BenchmarkSpec]) -> List[BenchmarkComparison]:
    """Run the baseline/SkipFlow comparison for every benchmark of a suite."""
    return [compare_configurations(spec) for spec in specs]
