"""End-to-end system checks tying the data plane to the theory: every
packet a live network delivers followed a legal up*/down* route, trunk
groups load-share, and the facade behaves."""

import pytest

from repro.constants import SEC
from repro.host.localnet import LocalNet
from repro.host.workload import Sink, PeriodicSender
from repro.network import Network
from repro.obs.inband import path_of
from repro.topology import torus
from repro.topology.generators import TopologySpec
from repro.types import Uid
from tests.checkers import assert_trail_legal


def test_all_delivered_packets_follow_legal_routes():
    """Run permutation traffic over a converged torus and check every
    delivered packet's in-band hop stack against the up*/down* rule."""
    net = Network(torus(3, 3), inband=True)
    for i in range(6):
        net.add_host(f"h{i}", [(i, 9), ((i + 3) % 9, 9)])
    localnets = {f"h{i}": LocalNet(net.drivers[f"h{i}"]) for i in range(6)}
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)

    delivered = []
    for i in range(6):
        localnets[f"h{i}"].on_datagram = (
            lambda src, et, size, pkt: delivered.append(pkt)
        )
    for i in range(6):
        PeriodicSender(
            localnets[f"h{i}"],
            net.hosts[f"h{(i + 2) % 6}"].uid,
            data_bytes=2000,
            period_ns=3_000_000,
            count=30,
        )
    net.run_for(2 * SEC)
    assert len(delivered) >= 150

    topology = net.topology()
    uid_of = {sw.name: sw.uid for sw in net.switches}
    for packet in delivered:
        assert_trail_legal(topology, path_of(packet.hops), uid_of.__getitem__)


def test_trunk_group_load_shares():
    """Parallel links between two switches function as a trunk group
    (section 6.3): traffic uses whichever is free."""
    spec = TopologySpec(uids=[Uid(0x100), Uid(0x200)], name="trunk2")
    spec.cables = [(0, 1, 1, 1), (0, 2, 1, 2)]
    net = Network(spec)
    for name, (sw, port) in {"a1": (0, 8), "a2": (0, 9),
                             "b1": (1, 8), "b2": (1, 9)}.items():
        net.add_host(name, [(sw, port)])
    localnets = {n: LocalNet(net.drivers[n]) for n in ("a1", "a2", "b1", "b2")}
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)

    sinks = [Sink(localnets["b1"]), Sink(localnets["b2"])]
    # two flows at ~0.9 link rate each: combined 1.8x one trunk link, so
    # both parallel cables must carry traffic
    for src, dst in (("a1", "b1"), ("a2", "b2")):
        PeriodicSender(localnets[src], net.hosts[dst].uid, data_bytes=16_000,
                       period_ns=1_450_000, count=150)
    net.run_for(2 * SEC)
    assert sum(s.count for s in sinks) == 300
    # what switch 1 received on each cable's end
    tx1 = net.switches[1].port_forwarded[1]
    tx2 = net.switches[1].port_forwarded[2]
    assert tx1 > 50 and tx2 > 50, f"trunk not shared: {tx1} vs {tx2}"


def test_facade_queries():
    net = Network(torus(2, 2))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    assert net.current_epoch() >= 1
    assert net.epoch_duration() is None or net.epoch_duration() > 0
    assert net.short_address_of(0) is not None
    assert "Network" in net.describe()
    with pytest.raises(ValueError):
        net.link_between(0, 0)


def test_restart_preserves_other_switch_numbers():
    """Switch numbers are proposals from the previous epoch: restarting
    one switch must not renumber the others (section 6.6.3)."""
    net = Network(torus(2, 3))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    numbers_before = dict(net.topology().numbers)
    victim_uid = net.switches[4].uid
    net.crash_switch(4)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.restart_switch(4)
    net.run_for(30 * SEC)
    assert net.converged(), net.describe()
    numbers_after = net.topology().numbers
    for uid, number in numbers_before.items():
        if uid != victim_uid:
            assert numbers_after[uid] == number
