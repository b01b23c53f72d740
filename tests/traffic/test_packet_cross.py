"""Fluid-vs-packet cross-validation on a small topology.

The fluid model is an approximation; ``tests/naive_traffic.py`` drives
real host controllers through the switch data plane with the same
workload.  On a workload small enough to run both, the two must agree on
*what* got delivered and be within an order of magnitude on *when* -- the
sanity band that keeps the fluid model honest without demanding
packet-exact latencies from a rate-share abstraction.
"""

import pytest

from repro.constants import SEC
from repro.network import Network
from repro.topology.generators import resolve_topology
from repro.traffic import engine
from repro.traffic.workload import TrafficConfig
from tests.naive_traffic import PacketWorkload

CROSS_TRAFFIC = TrafficConfig(
    pattern="uniform", flows=12, hosts=6, mean_flow_bytes=16_384, duration_ns=int(0.2 * SEC)
)


@pytest.fixture(autouse=True)
def tight_solver_pacing(monkeypatch):
    """At this scale admission batching would otherwise dominate the
    latency of sub-ms flows."""
    monkeypatch.setattr(engine, "ARRIVAL_BATCH_NS", 1_000_000)
    monkeypatch.setattr(engine, "MIN_RESOLVE_GAP_NS", 100_000)


def _run(packets):
    spec = resolve_topology("ring-4")
    if packets:
        net = Network(spec, seed=0)
        workload = PacketWorkload(net, CROSS_TRAFFIC)
    else:
        net = Network(spec, seed=0, traffic=CROSS_TRAFFIC)
        workload = net.traffic
    assert net.run_until_converged(timeout_ns=60 * SEC)
    workload.launch()
    net.run_for(int(1.2 * SEC))
    return workload.document()


def test_fluid_and_packet_agree_on_delivery():
    fluid = _run(packets=False)
    packet = _run(packets=True)

    # same deterministic workload in both models
    assert fluid["generated_flows"] == packet["generated_flows"] == 12

    def matrix(doc):
        return [
            (f["flow_id"], f["src_host"], f["dst_host"], f["size_bytes"])
            for f in doc["flows_sample"]
        ]

    assert matrix(fluid) == matrix(packet)

    # everything completes in both models on an uncut ring, nothing lost
    assert fluid["flows_completed"] == 12
    assert packet["flows_completed"] == 12
    assert fluid["delivered_bytes"] == packet["delivered_bytes"]
    assert fluid["drops"] == packet["drops"] == {}

    # latency agreement within an order of magnitude each way
    for quantile in ("p50_ns", "p99_ns"):
        f_ns = fluid["latency"][quantile]
        p_ns = packet["latency"][quantile]
        assert f_ns is not None and p_ns is not None
        ratio = p_ns / f_ns
        assert 0.1 <= ratio <= 10.0, (
            f"{quantile}: packet {p_ns}ns vs fluid {f_ns}ns (ratio {ratio:.2f})"
        )
