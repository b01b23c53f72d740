"""E6 -- Autonet-to-Ethernet bridge performance (section 6.8.2).

Paper: in one second the Firefly bridge can discard about 5000 small
packets (66 bytes), forward over 1000 small packets, or forward 200-300
maximum-size Ethernet packets; small-packet latency is about a
millisecond.  CPU-bound for small packets, Q-bus-bound for large.

Measured here: the same three rates and the latency, by offering load
across the bridge in each regime.
"""

import pytest

from benchmarks.bench_util import Rig, Row, report
from repro.host.ethernet import Ethernet
from repro.constants import MS, SEC, US
from repro.host.bridge import Bridge
from repro.net.packet import Packet, PacketType
from repro.topology import line
from repro.types import Uid

E0 = Uid(0xE0)
#: host h0 and the bridge's Autonet port, both dual-homed
ROW = Row(line(2), hosts={"h0": [(0, 5), (1, 5)], "bridge": [(1, 7), (0, 7)]}, bare=("bridge",))


def build_rig():
    rig = Rig(ROW)
    net = rig.net
    ether = Ethernet(net.sim, max_queue=100_000)
    station = ether.attach(net.hosts["bridge"].uid, "bridge-eth")
    e0 = ether.attach(E0, "e0")
    bridge = Bridge(net.drivers["bridge"], station, max_backlog=10_000)
    rig.boot()
    # teach the bridge where e0 lives
    e0.send(net.hosts["h0"].uid, 64)
    net.run_for(1 * SEC)
    return net, e0, bridge


def send_from_h0(net, dest_short, dest_uid, data_bytes):
    net.drivers["h0"].send(
        Packet(
            dest_short=dest_short,
            src_short=0,
            ptype=PacketType.CLIENT,
            dest_uid=dest_uid,
            src_uid=net.hosts["h0"].uid,
            data_bytes=data_bytes,
        )
    )


def via_bridge(net):
    """e0, through the bridge's short address."""
    return net.drivers["bridge"].short_address, E0


def h0_by_broadcast(net):
    """h0 itself, by the broadcast short address."""
    return 0x7FF, net.hosts["h0"].uid


def rate(dest, read, data_bytes, period_ns, count, run_ns):
    """On a fresh rig, offer ``count`` packets from h0 to ``dest(net)`` (a
    short address and a UID), one per ``period_ns``; run ``run_ns`` and
    return how fast ``read(bridge)`` grew, per second."""
    net, _e0, bridge = build_rig()
    dest_short, dest_uid = dest(net)
    for i in range(count):
        net.sim.at(net.sim.now + i * period_ns, send_from_h0, net, dest_short, dest_uid,
                   data_bytes)
    before, start = read(bridge), net.sim.now
    net.run_for(run_ns)
    return (read(bridge) - before) / ((net.sim.now - start) / 1e9)


@pytest.mark.benchmark(group="E6")
def test_bridge_rates(benchmark):
    def run():
        # small packets (~66 bytes of client data) at an offered rate well
        # above the CPU limit, then maximum-size Ethernet packets; each run
        # drains the backlog for 200 ms after the offer
        small = rate(via_bridge, lambda bridge: bridge.b.forwarded, 66, 200 * US, 5000, 1200 * MS)
        large = rate(via_bridge, lambda bridge: bridge.b.forwarded, 1500, 1 * MS, 1000, 1200 * MS)
        # discard rate: packets between two Autonet hosts that reach the
        # bridge (e.g. flooded broadcasts) need only examination
        discard = rate(h0_by_broadcast, lambda b: b.discarded, 66, 150 * US, 6000, 1100 * MS)

        # latency of one small packet through an idle bridge
        net, e0, bridge = build_rig()
        arrivals = []
        e0.on_receive = lambda src, dst, size, p: arrivals.append(net.sim.now)
        sent_at = net.sim.now
        send_from_h0(net, *via_bridge(net), 66)
        net.run_for(1 * SEC)
        latency_ms = (arrivals[0] - sent_at) / 1e6 if arrivals else float("nan")
        return [
            ("forward small (66B) pkts/s", ">1000", f"{small:.0f}"),
            ("forward max-size (1500B) pkts/s", "200-300", f"{large:.0f}"),
            ("discard small pkts/s", "~5000", f"{discard:.0f}"),
            ("small-packet latency (ms)", "~1", f"{latency_ms:.2f}"),
        ]

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
