import statistics

import pytest

from benchmarks.e2e import stats


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 41))  # 1..40
    value, percentile = stats.tail(samples)
    assert value == 30
    assert sum(1 for s in samples if s > value) == stats.BEYOND
    assert percentile == pytest.approx(75.0)


def test_tail_is_order_independent_and_scales_with_sample_count():
    samples = [float(i) for i in range(500)]
    value, percentile = stats.tail(list(reversed(samples)))
    assert value == 489.0
    assert percentile == pytest.approx(98.0)


@pytest.mark.parametrize("n", [1, 2, 10, 11, 20, 21])
def test_tail_never_falls_below_the_median(n):
    samples = [float(i) for i in range(n)]
    value, percentile = stats.tail(samples)
    assert value == statistics.median(samples)
    assert percentile == 50.0


def test_tail_first_sample_count_with_a_real_tail():
    samples = [float(i) for i in range(22)]
    value, _ = stats.tail(samples)
    assert value == 11.0  # ten of the 22 samples lie beyond it
