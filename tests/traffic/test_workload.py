"""Workload generation: deterministic, pattern-shaped, config-validated."""

import random

import pytest

from repro.constants import SEC
from repro.traffic.workload import (
    ARRIVAL_PATTERNS,
    HOTSPOT_FRACTION,
    TrafficConfig,
    generate_flows,
    host_switch,
)


def _flows(pattern, seed=7, **overrides):
    config = TrafficConfig(pattern=pattern, flows=400, hosts=100, **overrides)
    return config, generate_flows(config, random.Random(seed))


@pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
def test_generation_is_deterministic(pattern):
    _, first = _flows(pattern)
    _, second = _flows(pattern)
    assert first == second
    _, other = _flows(pattern, seed=8)
    assert first != other


@pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
def test_flows_sorted_within_window_and_valid(pattern):
    config, flows = _flows(pattern)
    assert len(flows) == config.flows
    assert [f.flow_id for f in flows] == list(range(config.flows))
    arrivals = [f.arrival_ns for f in flows]
    assert arrivals == sorted(arrivals)
    for f in flows:
        assert 0 <= f.arrival_ns <= config.duration_ns
        assert 0 <= f.src_host < config.hosts
        assert 0 <= f.dst_host < config.hosts
        assert f.src_host != f.dst_host
        assert f.size_bytes > 0


def test_hotspot_concentrates_destinations():
    config, flows = _flows("hotspot")
    hot_set_size = max(1, config.hosts // 20)
    by_dst = {}
    for f in flows:
        by_dst[f.dst_host] = by_dst.get(f.dst_host, 0) + 1
    top = sorted(by_dst.values(), reverse=True)[:hot_set_size]
    # the hot set should absorb roughly HOTSPOT_FRACTION of the flows
    assert sum(top) >= HOTSPOT_FRACTION * config.flows * 0.8


def test_incast_targets_one_victim():
    _, flows = _flows("incast")
    assert len({f.dst_host for f in flows}) == 1


def test_host_switch_round_robin():
    assert [host_switch(h, 4) for h in range(6)] == [0, 1, 2, 3, 0, 1]


def test_config_validation():
    with pytest.raises(ValueError, match="unknown arrival pattern"):
        TrafficConfig(pattern="bursty")
    # the per-packet model is a test oracle now, not a mode of the engine
    with pytest.raises(TypeError):
        TrafficConfig(mode="packet")
    with pytest.raises(ValueError):
        TrafficConfig(hosts=0)


def test_duration_scales_with_seconds():
    config = TrafficConfig(duration_ns=2 * SEC)
    assert config.duration_ns == 2_000_000_000
