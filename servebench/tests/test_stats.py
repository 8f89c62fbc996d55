import numpy as np
import pytest

from servebench.stats import apart, percentile, quartiles, spread, tail, tail_percentile, worse_by


@pytest.mark.parametrize(
    "n, expected",
    [(39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_refuses_a_sample_too_small_for_its_percentile():
    values = [float(i) for i in range(100)]
    assert tail(values, 90.0) == pytest.approx(np.percentile(values, 90))
    with pytest.raises(ValueError, match="cannot support a p95 tail"):
        tail(values, 95.0)
    with pytest.raises(ValueError):
        tail(values[:39], 75.0)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=57))
    for pct in (0.0, 12.5, 50.0, 75.0, 90.0, 100.0):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_spread_is_interquartile_distance_over_median():
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_worse_by_follows_the_better_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_apart_is_the_same_whichever_set_came_first():
    # 76.6 -> 58.2 is 24% better one way and 32% worse the other.
    assert apart(76.6, 58.2, "lower") == pytest.approx(76.6 / 58.2 - 1)
    assert apart(58.2, 76.6, "lower") == pytest.approx(76.6 / 58.2 - 1)
    assert apart(1390.0, 1153.0, "higher") == apart(1153.0, 1390.0, "higher")
