"""E6 -- Autonet-to-Ethernet bridge performance (section 6.8.2).

Paper: in one second the Firefly bridge can discard about 5000 small
packets (66 bytes), forward over 1000 small packets, or forward 200-300
maximum-size Ethernet packets; small-packet latency is about a
millisecond.  CPU-bound for small packets, Q-bus-bound for large.

Measured here: the same three rates and the latency, by offering load
across the bridge in each regime.
"""

if __package__ in (None, ""):  # direct invocation: python benchmarks/bench_X.py
    import os as _os
    import sys as _sys

    _ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
    _sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]

import pytest

from benchmarks.bench_util import current_seed, report
from repro.host.ethernet import Ethernet
from repro.constants import MS, SEC, US
from repro.host.bridge import AutonetEthernetBridge
from repro.host.localnet import LocalNet
from repro.net.packet import Packet, PacketType
from repro.network import Network
from repro.topology import line
from repro.types import Uid


def build_rig():
    net = Network(line(2), seed=current_seed())
    net.add_host("h0", [(0, 5), (1, 5)])
    ln0 = LocalNet(net.drivers["h0"])
    bridge_ctrl = net.add_host("bridge", [(1, 7), (0, 7)])
    ether = Ethernet(net.sim, max_queue=100_000)
    station = ether.attach(bridge_ctrl.uid, "bridge-eth")
    e0 = ether.attach(Uid(0xE0), "e0")
    bridge = AutonetEthernetBridge(net.drivers["bridge"], station, max_backlog=10_000)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    # teach the bridge where e0 lives
    e0.send(net.hosts["h0"].uid, 64)
    net.run_for(1 * SEC)
    return net, ln0, ether, e0, bridge


def offer_autonet_to_ethernet(net, bridge, data_bytes, period_ns, duration_ns):
    """Blast packets at the bridge's short address, destined for e0."""
    driver = net.drivers["h0"]
    bridge_short = net.drivers["bridge"].short_address
    count = duration_ns // period_ns

    def send_one(i):
        driver.send(
            Packet(
                dest_short=bridge_short,
                src_short=0,
                ptype=PacketType.CLIENT,
                dest_uid=Uid(0xE0),
                src_uid=net.hosts["h0"].uid,
                data_bytes=data_bytes,
            )
        )

    for i in range(int(count)):
        net.sim.at(net.sim.now + i * period_ns, send_one, i)
    before = bridge.forwarded_to_ethernet
    start = net.sim.now
    net.run_for(duration_ns + 200 * MS)  # drain the backlog
    return (bridge.forwarded_to_ethernet - before) / ((net.sim.now - start) / 1e9)


@pytest.mark.benchmark(group="E6")
def test_bridge_rates(benchmark):
    def run():
        rows = []
        # small packets (~66 bytes of client data) at an offered rate well
        # above the CPU limit
        net, ln0, ether, e0, bridge = build_rig()
        small = offer_autonet_to_ethernet(net, bridge, 66, 200 * US, 1 * SEC)
        rows.append(("forward small (66B) pkts/s", ">1000", f"{small:.0f}"))

        # maximum-size Ethernet packets
        net, ln0, ether, e0, bridge = build_rig()
        large = offer_autonet_to_ethernet(net, bridge, 1500, 1 * MS, 1 * SEC)
        rows.append(("forward max-size (1500B) pkts/s", "200-300", f"{large:.0f}"))

        # discard rate: packets between two Autonet hosts that reach the
        # bridge (e.g. flooded broadcasts) need only examination
        net, ln0, ether, e0, bridge = build_rig()
        driver = net.drivers["h0"]
        h0_uid = net.hosts["h0"].uid
        for i in range(6000):
            net.sim.at(
                net.sim.now + i * 150_000,
                lambda: driver.send(
                    Packet(
                        dest_short=0x7FF, src_short=0, ptype=PacketType.CLIENT,
                        dest_uid=h0_uid, src_uid=h0_uid, data_bytes=66,
                    )
                ),
            )
        before = bridge.discarded
        start = net.sim.now
        net.run_for(int(1.1 * SEC))
        discard = (bridge.discarded - before) / ((net.sim.now - start) / 1e9)
        rows.append(("discard small pkts/s", "~5000", f"{discard:.0f}"))

        # latency of one small packet through an idle bridge
        net, ln0, ether, e0, bridge = build_rig()
        arrivals = []
        e0.on_receive = lambda src, dst, size, p: arrivals.append(net.sim.now)
        sent_at = net.sim.now
        driver = net.drivers["h0"]
        driver.send(
            Packet(
                dest_short=net.drivers["bridge"].short_address, src_short=0,
                ptype=PacketType.CLIENT, dest_uid=Uid(0xE0),
                src_uid=net.hosts["h0"].uid, data_bytes=66,
            )
        )
        net.run_for(1 * SEC)
        latency_ms = (arrivals[0] - sent_at) / 1e6 if arrivals else float("nan")
        rows.append(("small-packet latency (ms)", "~1", f"{latency_ms:.2f}"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E6_bridge",
        "E6: Autonet-to-Ethernet bridge performance",
        ["quantity", "paper", "measured"],
        rows,
        notes="CPU-bound for small packets, Q-bus-bound for large (section 6.8.2)",
    )
    values = {label: float(value) for label, _paper, value in rows}
    assert values["forward small (66B) pkts/s"] > 900
    assert 150 <= values["forward max-size (1500B) pkts/s"] <= 400
    assert values["discard small pkts/s"] > 3500
    assert values["small-packet latency (ms)"] < 3.0

if __name__ == "__main__":
    from benchmarks.bench_util import run_cli

    run_cli(globals())
