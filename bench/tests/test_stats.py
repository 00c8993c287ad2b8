import pytest

from stats import nearest_rank, tail_percentile


def test_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 50) == 3.0
    assert nearest_rank(samples, 100) == 5.0
    assert nearest_rank(samples, 0) == 1.0


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if pct is None:
        assert tail is None
        return
    got_pct, value = tail
    assert got_pct == pct
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_value_ignores_sample_order():
    samples = [float((7 * i) % 100) for i in range(100)]
    assert tail_percentile(samples) == (90.0, 89.0)

