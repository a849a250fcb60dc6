"""Tests for the Table 1 and Figure 9 reporting layer."""

import pytest

from repro.reporting.figures import figure9_series, format_figure9, suite_averages
from repro.reporting.records import METRIC_NAMES, compare_configurations, compare_suite
from repro.reporting.table import format_table1, summarize_reductions, table1_rows
from repro.workloads.generator import spec_from_reduction


@pytest.fixture(scope="module")
def comparisons():
    specs = [
        spec_from_reduction("alpha", "Demo", total_methods=80, reduction_percent=20.0),
        spec_from_reduction("beta", "Demo", total_methods=60, reduction_percent=8.0),
    ]
    return compare_suite(specs)


class TestComparisonRecords:
    def test_normalized_below_one_for_reachable_methods(self, comparisons):
        for comparison in comparisons:
            assert comparison.normalized("reachable_methods") < 1.0
            assert comparison.reachable_method_reduction_percent > 0.0

    def test_metric_accessors(self, comparisons):
        comparison = comparisons[0]
        for metric in METRIC_NAMES:
            assert comparison.metric(metric, "baseline") >= 0
            assert comparison.metric(metric, "skipflow") >= 0
        with pytest.raises(KeyError):
            comparison.metric("nonsense")

    def test_as_dict_contains_all_metrics(self, comparisons):
        row = comparisons[0].as_dict()
        assert row["benchmark"] == "alpha"
        for metric in METRIC_NAMES:
            assert f"pta_{metric}" in row
            assert f"skipflow_{metric}" in row
            assert f"reduction_{metric}_percent" in row

    def test_spec_attached(self, comparisons):
        assert comparisons[0].spec is not None
        assert comparisons[0].spec.name == "alpha"

    def test_compare_configurations_accepts_custom_configs(self):
        from repro.core.analysis import AnalysisConfig
        spec = spec_from_reduction("gamma", "Demo", total_methods=60, reduction_percent=10.0)
        comparison = compare_configurations(
            spec,
            baseline_config=AnalysisConfig.baseline_pta(),
            skipflow_config=AnalysisConfig.predicates_only(),
        )
        assert comparison.skipflow.configuration == "SkipFlow-predicates-only"


    def test_shared_program_matches_the_two_program_form(self, monkeypatch):
        """Both builds share one generated program (one lowering) and report
        exactly what building each config on its own program reports."""
        from repro.core.analysis import AnalysisConfig
        from repro.image.builder import NativeImageBuilder
        from repro.reporting import records
        from repro.workloads.generator import generate_benchmark

        spec = spec_from_reduction("delta", "Demo", total_methods=70,
                                   reduction_percent=12.0)
        generated = []

        def counting_generate(target):
            generated.append(target)
            return generate_benchmark(target)

        monkeypatch.setattr(records, "generate_benchmark", counting_generate)
        shared = compare_configurations(spec)
        assert generated == [spec]
        assert shared.baseline.result.program is shared.skipflow.result.program
        for report, config in ((shared.baseline, AnalysisConfig.baseline_pta()),
                               (shared.skipflow, AnalysisConfig.skipflow())):
            alone = NativeImageBuilder(generate_benchmark(spec), config,
                                       benchmark_name=spec.name).build()
            assert report.result.kernel_ran == alone.result.kernel_ran == "arena"
            assert report.metrics.counters == alone.metrics.counters
            assert report.dead_code == alone.dead_code
            assert report.binary_size_bytes == alone.binary_size_bytes
            assert (report.result.reachable_methods
                    == alone.result.reachable_methods)
            assert report.result.stats == alone.result.stats


class TestTable1:
    def test_rows_two_per_benchmark(self, comparisons):
        rows = table1_rows(comparisons)
        assert len(rows) == 2 * len(comparisons)
        assert rows[0]["configuration"] == "PTA"
        assert rows[1]["configuration"] == "SkipFlow"

    def test_skipflow_rows_contain_percent_delta(self, comparisons):
        rows = table1_rows(comparisons)
        assert "%" in rows[1]["reachable_methods"]
        assert "%" not in rows[0]["reachable_methods"]

    def test_format_table_contains_headers_and_benchmarks(self, comparisons):
        text = format_table1(comparisons, title="My Table")
        assert "My Table" in text
        assert "Reach.Methods" in text
        assert "alpha" in text and "beta" in text
        assert "SkipFlow" in text

    def test_summarize_reductions(self, comparisons):
        summary = summarize_reductions(comparisons)
        assert summary["max"] >= summary["avg"] >= summary["min"]
        assert summarize_reductions([]) == {"max": 0.0, "min": 0.0, "avg": 0.0}


class TestFigure9:
    def test_series_has_all_metrics(self, comparisons):
        series = figure9_series(comparisons)
        assert set(series) == {"alpha", "beta"}
        for metrics in series.values():
            assert set(metrics) == set(METRIC_NAMES)

    def test_suite_averages(self, comparisons):
        averages = suite_averages(comparisons)
        assert averages["reachable_methods"] < 1.0
        assert suite_averages([])["reachable_methods"] == 1.0

    def test_format_figure(self, comparisons):
        text = format_figure9(comparisons, "Demo")
        assert "Figure 9 (Demo)" in text
        assert "alpha" in text
        assert "suite averages" in text
        assert "|" in text  # the ASCII bar
