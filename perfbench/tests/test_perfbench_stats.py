"""Percentiles refuse to rest on fewer than ten samples beyond them."""

import pytest

from stats import MIN_BEYOND, TooFewSamples, median, percentile, spread


def test_p90_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 0.9)  # rank 90 leaves 9 beyond
    assert percentile(list(range(100)), 0.9) == 89  # leaves exactly 10


def test_p50_needs_twenty_samples():
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 0.5)
    assert percentile(list(range(20)), 0.5) == 9


def test_refusal_bound_is_ten():
    assert MIN_BEYOND == 10


def test_median_has_no_floor():
    assert median([3.0]) == 3.0
    assert median([1.0, 2.0, 10.0]) == 2.0
    with pytest.raises(TooFewSamples):
        median([])


def test_bad_quantile():
    with pytest.raises(ValueError):
        percentile(list(range(1000)), 1.0)


def test_spread_is_quartile_distance_over_median():
    result = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert result["median"] == 5.5
    assert result["iqr_share"] == pytest.approx(
        (result["q3"] - result["q1"]) / 5.5)
