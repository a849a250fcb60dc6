"""The policy-study reporting: point extraction, ordering and table rendering."""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.engine import run_config_matrix
from repro.reporting.policy import (
    format_policy_study,
    policy_points,
    summarize_policy_sweep,
)
from repro.workloads.generator import BenchmarkSpec, HierarchySpec

SPEC = BenchmarkSpec(name="sweep-spec", suite="test", core_methods=20,
                     guarded_modules=(),
                     hierarchies=(HierarchySpec(depth=1, fanout=8,
                                                call_sites=2),))

#: Columns deliberately out of order: a policy's thresholds descending and
#: the two saturating policies interleaved.
COLUMNS = ("allocated-type@16", "off", "allocated-type-reachable@4",
           "allocated-type@4")


def _config(label):
    skipflow = AnalysisConfig.skipflow()
    if label == "off":
        return skipflow
    saturation, _, threshold = label.partition("@")
    return skipflow.with_saturation_policy(saturation, int(threshold))


@pytest.fixture(scope="module")
def row():
    (matrix_row,) = run_config_matrix(
        [SPEC], [_config(label) for label in COLUMNS], names=list(COLUMNS))
    return matrix_row


class TestPoints:
    def test_reference_first_then_thresholds_ascending(self, row):
        """Each policy keeps its first-column position; its thresholds are
        ordered smallest first whatever order the columns came in."""
        points = policy_points(row)
        assert [p.label for p in points] == [
            "off", "allocated-type@4", "allocated-type@16",
            "allocated-type-reachable@4"]
        assert [p.threshold for p in points] == [None, 4, 16, 4]
        assert [p.saturation for p in points] == [
            "off", "allocated-type", "allocated-type",
            "allocated-type-reachable"]

    def test_reference_point_has_no_saturation(self, row):
        reference = policy_points(row)[0]
        assert reference.is_reference
        assert reference.saturated_flows == 0

    def test_low_cutoff_saturates_and_stays_sound(self, row):
        points = {p.label: p for p in policy_points(row)}
        reference = points["off"]
        cutoff = points["allocated-type@4"]
        assert cutoff.saturated_flows > 0
        assert cutoff.reachable_methods >= reference.reachable_methods
        assert cutoff.poly_calls >= reference.poly_calls

    def test_poly_calls_come_from_the_report_metrics(self, row):
        points = {p.label: p for p in policy_points(row)}
        for run in row.runs:
            assert (points[run.name].poly_calls
                    == run.report.metrics.poly_calls)


class TestFormatting:
    def test_table_contains_every_point(self, row):
        points = policy_points(row)
        text = format_policy_study("sweep-spec", points)
        lines = text.splitlines()
        assert "sweep-spec" in lines[0]
        assert len(lines) == 2 + 1 + len(points)  # title, header, rule, rows
        for point in points:
            assert any(line.strip().startswith(point.label)
                       for line in lines[3:])

    def test_poly_calls_column(self, row):
        points = policy_points(row)
        lines = format_policy_study("sweep-spec", points).splitlines()
        assert "PolyCalls" in lines[1].split()
        reference, cutoff = points[0], points[1]
        assert f"{reference.poly_calls}" in lines[3].split()
        delta = (100.0 * (cutoff.poly_calls - reference.poly_calls)
                 / reference.poly_calls)
        assert f"{cutoff.poly_calls} ({delta:+.1f}%)" in lines[4]

    def test_missing_reference_rejected(self, row):
        points = [p for p in policy_points(row) if not p.is_reference]
        with pytest.raises(ValueError, match="reference"):
            format_policy_study("sweep-spec", points)

    def test_summary_reports_loss_and_cheapest(self, row):
        points = policy_points(row)
        summary = summarize_policy_sweep(points)
        assert set(summary) == {"cheapest_label",
                                "cheapest_steps_delta_percent",
                                "reachable_loss_percent_by_saturation"}
        assert summary["cheapest_label"] != "off"
        losses = summary["reachable_loss_percent_by_saturation"]
        assert set(losses) == {"off", "allocated-type",
                               "allocated-type-reachable"}
        assert losses["off"] == 0.0
        # The worst loss over a policy's thresholds is reported.
        assert all(loss >= 0.0 for loss in losses.values())
