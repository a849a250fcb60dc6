"""End-to-end metric assembly: reference units, per-subject medians, percentiles with counts."""

import pytest
from bench.reference import around
from bench.report import end_to_end, in_reference_units, subject_medians
from bench.workloads import Op, Outcome


def _outcome():
    outcome = Outcome(setup_seconds=[3.0, 1.0, 2.0], elapsed=10.0)
    outcome.ops = [Op("half", 100.0, subject="a"), Op("half", 50.0, subject="b"),
                   Op("half", 80.0, subject="a"), Op("half", 70.0, subject="b"),
                   Op("half", 10.0, ok=False, subject="c")]
    return outcome


def test_rates_percentiles_and_setup_median():
    metrics = end_to_end(_outcome())
    assert metrics["setup_s"].value == 2.0 and metrics["setup_s"].count == 3
    assert metrics["ops_per_s"].value == pytest.approx(0.5)
    assert metrics["failed_ratio"].value == pytest.approx(0.2)


def test_op_times_are_each_subjects_median_over_passed_ops():
    assert sorted(subject_medians(_outcome().ops)) == [60.0, 90.0]
    metrics = end_to_end(_outcome())
    assert metrics["op_ms_mean"].value == 75.0 and metrics["op_ms_mean"].count == 2
    assert metrics["op_ms_p50"].value == 75.0 and metrics["op_ms_p50"].count == 2
    assert metrics["op_ms_p75"].value == 82.5


def test_reference_scales_each_op_by_the_timings_around_it():
    outcome = _outcome()
    for index, op in enumerate(outcome.ops):
        op.started = 10.0 * index
    outcome.reference_at = [0.0, 10.0, 20.0, 30.0, 40.0]
    outcome.reference_ms = [30.0, 30.0, 60.0, 60.0, 60.0]
    scaled = [op.ms for op in in_reference_units(outcome)]
    assert scaled == pytest.approx([100.0, 50.0, 40.0, 35.0, 5.0])
    assert around([0.0, 1.0, 2.0, 3.0], [9.0, 1.0, 5.0, 7.0], 0.1) == 5.0
    assert end_to_end(outcome)["setup_s"].value == pytest.approx(2.0 * 30.0 / 60.0)


def test_tail_percentiles_are_flagged_without_ten_samples_beyond():
    assert "samples beyond" in end_to_end(_outcome())["op_ms_p90"].note
    outcome = Outcome(setup_seconds=[1.0], elapsed=1.0)
    outcome.ops = [Op("edit", float(ms), subject=str(ms)) for ms in range(100)]
    metrics = end_to_end(outcome)
    assert metrics["op_ms_p90"].note == "" and metrics["op_ms_p75"].note == ""


def test_mode_splits_only_where_measured():
    outcome = _outcome()
    assert "warm_ms_p50" not in end_to_end(outcome)
    outcome.mode_ms = {"warm": [10.0, 30.0, 20.0], "rehydrate": [200.0]}
    metrics = end_to_end(outcome)
    assert metrics["warm_ms_p50"].value == 20.0 and metrics["warm_ms_p50"].count == 3
    assert metrics["rehydrate_ms_p50"].value == 200.0
    assert "cold_ms_p50" not in metrics
