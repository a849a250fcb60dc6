"""Tests for the Table 1 and Figure 9 reporting layer over engine rows."""

import pytest

from repro.engine import run_specs
from repro.engine.runner import _WORKER_PROGRAMS
from repro.reporting.figures import figure9_series, format_figure9, suite_averages
from repro.reporting.table import (
    METRIC_NAMES,
    format_matrix_table,
    matrix_table_rows,
    metric_value,
    summarize_reductions,
)
from repro.workloads.generator import spec_from_reduction

SPECS = [
    spec_from_reduction("alpha", "Demo", total_methods=80, reduction_percent=20.0),
    spec_from_reduction("beta", "Demo", total_methods=60, reduction_percent=8.0),
]


@pytest.fixture(scope="module")
def comparisons():
    return run_specs(SPECS)


class TestComparisonRows:
    def test_normalized_below_one_for_reachable_methods(self, comparisons):
        for row in comparisons:
            assert row.normalized("reachable_methods", "SkipFlow") < 1.0
            assert row.reduction_percent("reachable_methods", "SkipFlow") > 0.0
            assert row.normalized("reachable_methods", "PTA") == 1.0

    def test_metric_accessors(self, comparisons):
        row = comparisons[0]
        assert row.names == ("PTA", "SkipFlow")
        for metric in METRIC_NAMES:
            assert row.metric(metric, "PTA") >= 0
            assert row.metric(metric, "SkipFlow") >= 0
        with pytest.raises(KeyError):
            row.metric("nonsense", "SkipFlow")
        with pytest.raises(KeyError):
            metric_value(row.report("PTA"), "nonsense")

    def test_as_dict_contains_all_metrics(self, comparisons):
        row = comparisons[0].as_dict()
        assert row["benchmark"] == "alpha"
        for metric in METRIC_NAMES:
            assert f"PTA_{metric}" in row
            assert f"SkipFlow_{metric}" in row

    def test_spec_identity_attached(self, comparisons):
        assert [(row.benchmark, row.suite) for row in comparisons] == [
            (spec.name, spec.suite) for spec in SPECS]

    def test_run_specs_accepts_custom_configs(self):
        from repro.core.analysis import AnalysisConfig
        spec = spec_from_reduction("gamma", "Demo", total_methods=60, reduction_percent=10.0)
        row = run_specs(
            [spec],
            baseline_config=AnalysisConfig.baseline_pta(),
            skipflow_config=AnalysisConfig.predicates_only(),
        )[0]
        assert row.names == ("PTA", "SkipFlow")
        assert row.report("SkipFlow").configuration == "SkipFlow-predicates-only"

    def test_shared_program_matches_the_two_program_form(self, monkeypatch):
        """Both columns share one generated program (one lowering) and report
        exactly what building each config on its own program reports."""
        from repro.core.analysis import AnalysisConfig
        from repro.engine import runner
        from repro.image.builder import NativeImageBuilder
        from repro.ir.arena import lowering
        from repro.workloads.generator import generate_benchmark

        spec = spec_from_reduction("delta", "Demo", total_methods=70,
                                   reduction_percent=12.0)
        generated, lowered = [], []

        def counting_generate(target):
            generated.append(target)
            return generate_benchmark(target)

        def counting_lower(program, lower=lowering.lower):
            lowered.append(program)
            return lower(program)

        monkeypatch.setattr(runner, "generate_benchmark", counting_generate)
        monkeypatch.setattr(lowering, "lower", counting_lower)
        _WORKER_PROGRAMS.clear()
        try:
            shared = run_specs([spec])[0]
        finally:
            _WORKER_PROGRAMS.clear()
        assert generated == [spec]
        assert len(lowered) == 1
        for name, config in (("PTA", AnalysisConfig.baseline_pta()),
                             ("SkipFlow", AnalysisConfig.skipflow())):
            report = shared.report(name)
            alone = NativeImageBuilder(generate_benchmark(spec), config,
                                       benchmark_name=spec.name).build()
            for metric in METRIC_NAMES:
                if "time" not in metric:
                    assert metric_value(report, metric) == metric_value(alone, metric)
            assert report.solver_steps == alone.result.stats.steps
            assert report.solver_joins == alone.result.stats.joins


class TestTable1:
    def test_rows_two_per_benchmark(self, comparisons):
        rows = matrix_table_rows(comparisons)
        assert len(rows) == 2 * len(comparisons)
        assert rows[0]["configuration"] == "PTA"
        assert rows[1]["configuration"] == "SkipFlow"

    def test_skipflow_rows_contain_percent_delta(self, comparisons):
        rows = matrix_table_rows(comparisons)
        assert "%" in rows[1]["reachable_methods"]
        assert "%" not in rows[0]["reachable_methods"]

    def test_format_table_contains_headers_and_benchmarks(self, comparisons):
        text = format_matrix_table(comparisons, title="My Table")
        assert "My Table" in text
        assert "Reach.Methods" in text
        assert "alpha" in text and "beta" in text
        assert "SkipFlow" in text

    def test_benchmark_named_on_its_reference_line_only(self, comparisons):
        lines = format_matrix_table(comparisons, title="T").splitlines()[4:]
        assert [line.split()[:2] for line in lines[0::2]] == [
            ["alpha", "PTA"], ["beta", "PTA"]]
        assert all(line.split()[0] == "SkipFlow" for line in lines[1::2])

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
