"""The traffic engine's latency histogram: buckets, moments, quantiles."""

import pytest

from repro.traffic.engine import Histogram


def test_histogram_buckets_and_moments():
    h = Histogram((10, 100, 1000))
    for v in (5, 50, 500, 5000):
        h.observe(v)
    assert h.count == 4
    assert h.total == 5555
    assert h.min == 5 and h.max == 5000
    assert h.mean == pytest.approx(5555 / 4)
    assert h.bucket_counts == [1, 1, 1, 1]  # the last is the overflow bucket


def test_histogram_quantile_round_trip():
    # 5000 uniform samples through fine buckets: the interpolated
    # quantiles must land close to the exact empirical ones
    h = Histogram(tuple(range(100, 10100, 100)))
    values = [(i * 7919) % 10000 + 1 for i in range(5000)]
    for v in values:
        h.observe(v)
    ordered = sorted(values)
    for q in (0.50, 0.90, 0.99):
        exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        estimate = h.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.05), (q, estimate, exact)


def test_histogram_quantile_edge_cases():
    h = Histogram((10, 100))
    assert h.quantile(0.5) is None  # empty histogram
    h.observe(42)
    # single observation: every quantile is that value
    assert h.quantile(0.5) == 42
    assert h.quantile(0.99) == 42
    with pytest.raises(ValueError):
        h.quantile(0.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_quantile_overflow_bucket_stays_within_data():
    h = Histogram((10,))
    for v in (50, 60, 70, 80):  # all beyond the last bound
        h.observe(v)
    for q in (0.5, 0.9, 0.99):
        est = h.quantile(q)
        assert 50 <= est <= 80
