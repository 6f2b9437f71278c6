import statistics

import pytest

from perfbench.stats import percentile, quartiles, relative_iqr, supported_percentile


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
        (9999, 99.0), (10000, 99.9),
    ],
)
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    p = supported_percentile(n)
    assert p == expected
    if p is not None:
        assert round(n * (100 - p) / 100, 6) >= 10


def test_quartiles_match_statistics_quantiles():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.9]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert quartiles(xs) == (q1, q2, q3)
    assert relative_iqr(xs) == pytest.approx((q3 - q1) / q2)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
