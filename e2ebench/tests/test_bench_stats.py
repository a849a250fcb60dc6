"""Percentiles with sample counts, and the run-to-run spread."""

import statistics

import pytest
from bench import stats


def test_percentile_interpolates_between_closest_ranks():
    values = [40.0, 10.0, 30.0, 20.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile(values, 50) == 25.0
    assert stats.percentile(values, 90) == pytest.approx(37.0)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_percentile_matches_inclusive_quantiles_at_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert stats.percentile(values, 25) == pytest.approx(q1)
    assert stats.percentile(values, 50) == pytest.approx(q2)
    assert stats.percentile(values, 75) == pytest.approx(q3)


@pytest.mark.parametrize("count,q,beyond", [
    (100, 90, 10), (99, 90, 10), (90, 90, 9), (41, 75, 10), (40, 75, 10),
    (10, 50, 5), (1, 90, 0), (0, 90, 0),
])
def test_samples_beyond(count, q, beyond):
    assert stats.samples_beyond(count, q) == beyond


def test_timing_carries_its_sample_count_and_support():
    values = [float(i) for i in range(1, 101)]
    p90 = stats.timing(values, 90)
    assert p90.count == 100 and p90.supported
    short = stats.timing(values[:50], 90)
    assert short.count == 50 and not short.supported
    assert stats.timing(values[:3], 50).supported
    assert stats.timing([], 50) is None


def test_spread_uses_default_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    figure = stats.spread(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (figure.q1, figure.q3) == (q1, q3)
    assert figure.median == statistics.median(values)
    assert figure.relative == pytest.approx((q3 - q1) / figure.median)
    with pytest.raises(ValueError):
        stats.spread([1.0])
