"""The bridge between two Autonets (§6.8.2)."""

import pytest

from repro.host.ethernet import Ethernet
from repro.constants import SEC
from repro.host.bridge import Bridge
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import line
from repro.types import Uid


@pytest.fixture
def bridged_autonets():
    """Two independent Autonets joined by a dual-attached bridge host."""
    sim = Simulator()
    from repro.topology.generators import TopologySpec

    net_a = Network(line(2), sim=sim, name="A")
    spec_b = TopologySpec(uids=[Uid(0x2000), Uid(0x2001)], name="line-2b")
    spec_b.cables = [(0, 1, 1, 1)]
    net_b = Network(spec_b, sim=sim, name="B")

    net_a.add_host("hA", [(0, 5), (1, 5)])
    net_b.add_host("hB", [(1, 5), (0, 5)])
    ln_a = LocalNet(net_a.drivers["hA"])
    ln_b = LocalNet(net_b.drivers["hB"])

    net_a.add_host("bridge-a", [(1, 7), (0, 7)])
    net_b.add_host("bridge-b", [(0, 7), (1, 7)])
    bridge = Bridge(net_a.drivers["bridge-a"], net_b.drivers["bridge-b"])

    assert net_a.run_until_converged(timeout_ns=60 * SEC)
    assert net_b.converged() or net_b.run_until_converged(timeout_ns=60 * SEC)
    net_a.run_for(5 * SEC)
    return net_a, net_b, ln_a, ln_b, bridge


def test_broadcast_crosses_between_autonets(bridged_autonets):
    net_a, net_b, ln_a, ln_b, bridge = bridged_autonets
    got = []
    ln_b.on_datagram = lambda src, et, size, pkt: got.append(size)
    ln_a.send(BROADCAST_UID, 640)
    net_a.run_for(1 * SEC)
    assert got == [640]
    assert bridge.b.forwarded >= 1


def test_unicast_conversation_across_bridge(bridged_autonets):
    net_a, net_b, ln_a, ln_b, bridge = bridged_autonets
    uid_a = net_a.hosts["hA"].uid
    uid_b = net_b.hosts["hB"].uid
    got_b, got_a = [], []
    ln_b.on_datagram = lambda src, et, size, pkt: got_b.append((src, size, pkt))
    ln_a.on_datagram = lambda src, et, size, pkt: got_a.append((src, size, pkt))

    ln_a.send(uid_b, 800)  # first contact: floods, crosses the bridge
    net_a.run_for(2 * SEC)
    assert [(s, n) for s, n, _ in got_b] == [(uid_a, 800)]

    ln_b.send(uid_a, 900)  # reply: rides the learned bridge short address
    net_a.run_for(2 * SEC)
    assert [(s, n) for s, n, _ in got_a] == [(uid_b, 900)]

    # hB's cache maps hA to the bridge's short address on net B: the
    # bridge "behaves like a large number of hosts sharing the same
    # short address" (section 6.8.2)
    assert ln_b.cache[uid_a].short_address == net_b.drivers["bridge-b"].short_address

    # steady state: further packets cross unicast end to end
    before = bridge.a.forwarded + bridge.b.forwarded
    ln_a.send(uid_b, 100)
    net_a.run_for(2 * SEC)
    assert bridge.a.forwarded + bridge.b.forwarded == before + 1
    assert got_b[-1][2].dest_short == net_a.drivers["bridge-a"].short_address \
        or got_b[-1][1] == 100


def test_local_traffic_not_forwarded(bridged_autonets):
    net_a, net_b, ln_a, ln_b, bridge = bridged_autonets
    net_a.add_host("hA2", [(0, 6), (1, 6)])
    LocalNet(net_a.drivers["hA2"])  # attach the second host
    net_a.run_for(5 * SEC)
    forwarded_before = bridge.a.forwarded + bridge.b.forwarded
    # teach the bridge both hosts' locations, then talk locally
    ln_a.send(net_a.hosts["hA2"].uid, 300)
    net_a.run_for(1 * SEC)
    ln_a.send(net_a.hosts["hA2"].uid, 300)
    net_a.run_for(1 * SEC)
    # unicast between two net-A hosts never reaches the bridge at all
    # (it receives only broadcasts and its own short address): at most
    # the initial flooded copies crossed
    assert bridge.a.forwarded + bridge.b.forwarded <= forwarded_before + 2


def test_bridge_arp_probe_for_unknown_target(bridged_autonets):
    net_a, net_b, ln_a, ln_b, bridge = bridged_autonets
    uid_b = net_b.hosts["hB"].uid
    # hA ARPs for hB before any traffic has crossed: the bridge probes
    # net B rather than answering blindly
    ln_a._send_arp_request(uid_b, 0x7FF)
    net_a.run_for(3 * SEC)
    assert ln_a.cache.get(uid_b) is not None
    assert (
        ln_a.cache[uid_b].short_address
        == net_a.drivers["bridge-a"].short_address
    )
    assert bridge.proxy_arps >= 1


def test_a_rejected_bridge_leaves_its_devices_unwired():
    # two Autonets of two simulators
    nets = [Network(line(2), name=name) for name in "AB"]
    drivers = []
    for net in nets:
        net.add_host("h", [(0, 5), (1, 5)])
        drivers.append(net.drivers["h"])
    with pytest.raises(ValueError):
        Bridge(*drivers)
    assert [driver.on_packet for driver in drivers] == [None, None]
    # two Ethernets
    sim = Simulator()
    stations = [Ethernet(sim).attach(Uid(0xB1)), Ethernet(sim).attach(Uid(0xB2))]
    with pytest.raises(ValueError):
        Bridge(*stations)
    assert [(s.on_receive, s.promiscuous) for s in stations] == [(None, False)] * 2

