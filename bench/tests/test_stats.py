import pytest

import stats


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 50) == 50
    assert stats.percentile(ordered, 99) == 99
    assert stats.percentile(ordered, 100) == 100
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [
        (30, None),      # p75 would leave 7 beyond
        (40, 75.0),      # 10 beyond p75, 4 beyond p90
        (100, 90.0),     # exactly 10 beyond p90, 1 beyond p99
        (999, 90.0),     # 9 beyond p99
        (1000, 99.0),    # exactly 10 beyond p99
        (9999, 99.0),    # 9 beyond p99.9
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond_it(count, expected):
    assert stats.supported_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    summary = stats.summarize([float(v) for v in range(1, 1001)])
    assert summary == {"n": 1000, "median": 500.5, "tail_pct": 99.0, "tail": 990.0}


def test_unsupported_percentile_is_withheld():
    samples = [float(v) for v in range(500)]
    assert stats.percentile_or_none(samples, 99.0) is None
    assert stats.percentile_or_none(samples, 50.0) == 249.0


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 12.0, 8.0, 10.0, 10.0, 10.0, 10.0]
    assert stats.quartile_spread(values) == pytest.approx(0.0)
    assert stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)
