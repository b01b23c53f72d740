"""Semantics of the repro.obs metrics registry."""

import pytest

from repro.obs.registry import Histogram, MetricsRegistry, NULL_COUNTER


def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("packets", switch="sw0", port=1)
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.value("packets", switch="sw0", port=1) == 5
    # label order must not matter: same series either way
    assert reg.counter("packets", port=1, switch="sw0") is c


def test_histogram_buckets_and_moments():
    h = Histogram("wait_ns", {"switch": "sw0"}, buckets=(10, 100, 1000))
    for v in (5, 50, 500, 5000):
        h.observe(v)
    snap = h.snapshot_value()
    assert snap["count"] == 4
    assert snap["sum"] == 5555
    assert snap["min"] == 5 and snap["max"] == 5000
    assert snap["mean"] == pytest.approx(5555 / 4)
    assert snap["buckets"] == {"10": 1, "100": 1, "1000": 1, "+Inf": 1}


def test_histogram_quantile_round_trip():
    # 5000 uniform samples through fine buckets: the interpolated
    # quantiles must land close to the exact empirical ones
    h = Histogram("lat", {}, buckets=tuple(range(100, 10100, 100)))
    values = [(i * 7919) % 10000 + 1 for i in range(5000)]
    for v in values:
        h.observe(v)
    ordered = sorted(values)
    for q in (0.50, 0.90, 0.99):
        exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        estimate = h.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.05), (q, estimate, exact)
    snap = h.snapshot_value()
    assert snap["p50"] == h.quantile(0.50)
    assert snap["p90"] == h.quantile(0.90)
    assert snap["p99"] == h.quantile(0.99)


def test_histogram_quantile_edge_cases():
    h = Histogram("lat", {}, buckets=(10, 100))
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
    h = Histogram("lat", {}, buckets=(10,))
    for v in (50, 60, 70, 80):  # all beyond the last bound
        h.observe(v)
    for q in (0.5, 0.9, 0.99):
        est = h.quantile(q)
        assert 50 <= est <= 80


def test_distinct_labels_are_distinct_series():
    reg = MetricsRegistry()
    reg.counter("drops", port=1).inc(2)
    reg.counter("drops", port=2).inc(3)
    assert [(name, dict(key)) for name, key, _c in reg.counters()] == [
        ("drops", {"port": 1}),
        ("drops", {"port": 2}),
    ]
    assert reg.total("drops") == 5


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("x", a=1)
    assert c is NULL_COUNTER
    c.inc(10)
    reg.collect("lazy", lambda: 42)
    assert list(reg.counters()) == []
    snap = reg.snapshot()
    assert snap == {"enabled": False, "dropped_series": 0, "series": {}}


def test_collectors_sampled_only_at_snapshot():
    reg = MetricsRegistry()
    calls = {"n": 0}

    def sample():
        calls["n"] += 1
        return calls["n"]

    reg.collect("lazy_series", sample, switch="sw0")
    assert calls["n"] == 0  # registering costs nothing
    snap = reg.snapshot()
    assert calls["n"] == 1
    [row] = snap["series"]["lazy_series"]
    assert row == {"labels": {"switch": "sw0"}, "type": "collected", "value": 1}
    # collectors returning None are skipped entirely
    reg.collect("absent", lambda: None)
    assert "absent" not in reg.snapshot()["series"]


def test_snapshot_is_json_ready():
    import json

    reg = MetricsRegistry()
    reg.counter("c", switch="sw0", obj=object()).inc()
    reg.collect("h", lambda: Histogram("h", {}, buckets=(1,)).snapshot_value())
    text = json.dumps(reg.snapshot())
    assert "sw0" in text


def test_total_ignores_non_numeric_series():
    reg = MetricsRegistry()
    reg.counter("n", k=1).inc(2)
    reg.collect("n", lambda: {"count": 9}, k=2)  # dict-valued: not summed
    assert reg.total("n") == 2
