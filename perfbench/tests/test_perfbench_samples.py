"""Percentile math of the benchmark against the standard library."""

import random
import statistics

import pytest

from perfbench.samples import MIN_TAIL_SAMPLES, late_share, percentile, summarize


@pytest.mark.parametrize("size", [2, 3, 7, 40, 101, 1000])
def test_percentiles_match_statistics_quantiles(size):
    rng = random.Random(size)
    data = [rng.expovariate(1.0) for _ in range(size)]
    cuts = statistics.quantiles(data, n=100, method="inclusive")
    for q in range(1, 100):
        assert percentile(data, q) == pytest.approx(cuts[q - 1], rel=1e-12)
    assert percentile(data, 50) == pytest.approx(statistics.median(data))
    assert percentile(data, 0) == min(data)
    assert percentile(data, 100) == max(data)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summary_reports_tail_only_with_enough_samples():
    few = summarize([0.001] * (MIN_TAIL_SAMPLES - 1))
    assert few["n"] == MIN_TAIL_SAMPLES - 1
    assert few["p50_ms"] == pytest.approx(1.0)
    assert few["p99_ms"] is None
    many = summarize([i / 1000.0 for i in range(1, 1001)])
    assert many["n"] == 1000
    assert many["p99_ms"] == pytest.approx(990.01)
    assert summarize([])["p50_ms"] is None


def test_late_share_counts_threshold_inclusive():
    assert late_share([0.1, 0.19, 0.2, 0.3], 0.19) == 0.75
    assert late_share([], 0.19) == 0.0
