"""The reporting rules: the tail percentile and the run-to-run spread."""

import pytest

from stats import spread, tail_percentile


def test_no_percentile_below_twenty_samples():
    # even the median of 19 samples has only 9 beyond it
    assert tail_percentile(range(19)) is None


def test_median_from_twenty_samples():
    assert tail_percentile([float(x) for x in range(1, 21)]) == (50.0, 10.0)


def test_highest_percentile_with_ten_beyond():
    samples = [float(x) for x in range(1, 101)]
    assert tail_percentile(samples) == (90.0, 90.0)        # 10 samples beyond p90
    samples = [float(x) for x in range(1, 1001)]
    assert tail_percentile(samples) == (99.0, 990.0)       # p99.9 has only 1 beyond
    assert tail_percentile(reversed(samples)) == (99.0, 990.0)


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
