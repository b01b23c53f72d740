"""The Autonet-to-Ethernet bridge (section 6.8.2)."""

import pytest

from repro.host.ethernet import ETHERNET_BROADCAST, Ethernet
from repro.constants import SEC
from repro.host.bridge import Bridge
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.packet import PacketType
from repro.network import Network
from repro.topology import line
from repro.types import Uid


@pytest.fixture
def bridged():
    """A 2-switch Autonet with host h0, bridged to an Ethernet with
    station e0."""
    net = Network(line(2))
    net.add_host("h0", [(0, 5), (1, 5)])
    ln0 = LocalNet(net.drivers["h0"])
    bridge_ctrl = net.add_host("bridge", [(1, 7), (0, 7)])
    ether = Ethernet(net.sim)
    bridge_station = ether.attach(bridge_ctrl.uid, "bridge-eth")
    e0 = ether.attach(Uid(0xE0), "e0")
    bridge = Bridge(net.drivers["bridge"], bridge_station)
    assert net.run_until_converged(timeout_ns=30 * SEC)
    net.run_for(5 * SEC)
    return net, ln0, ether, e0, bridge


def test_autonet_broadcast_crosses_to_ethernet(bridged):
    net, ln0, ether, e0, bridge = bridged
    got = []
    e0.on_receive = lambda src, dst, size, p: got.append((src, size))
    ln0.send(BROADCAST_UID, 700)
    net.run_for(1 * SEC)
    assert got, "broadcast did not cross the bridge"
    assert got[0][1] == 700
    assert bridge.b.forwarded >= 1


def test_ethernet_to_autonet_host(bridged):
    net, ln0, ether, e0, bridge = bridged
    h0_uid = net.hosts["h0"].uid
    got = []
    ln0.on_datagram = lambda src, et, size, pkt: got.append((src, size))
    e0.send(h0_uid, 600)
    net.run_for(1 * SEC)
    assert got == [(Uid(0xE0), 600)]
    assert bridge.a.forwarded >= 1


def test_proxy_arp_lets_autonet_host_reach_ethernet_host(bridged):
    net, ln0, ether, e0, bridge = bridged
    e1 = ether.attach(Uid(0xE1), "e1")
    # e0 announces itself (the bridge forwards that broadcast, so h0 hears
    # of e0); e1 then talks only to e0, so only the bridge learns of e1
    e0.send(ETHERNET_BROADCAST, 100)
    net.run_for(1 * SEC)
    e1.send(Uid(0xE0), 100)
    net.run_for(1 * SEC)
    assert bridge.cache[Uid(0xE1)] == ("ethernet", None)
    assert Uid(0xE1) not in ln0.cache

    # too large to broadcast to an unknown UID: h0 sends an ARP request in
    # its place, and the bridge answers for e1 with its own short address
    assert not ln0.send(Uid(0xE1), 4000)
    net.run_for(1 * SEC)
    assert bridge.proxy_arps == 1
    assert ln0.cache[Uid(0xE1)].short_address == net.drivers["bridge"].short_address

    got = []
    e1.on_receive = lambda src, dst, size, p: got.append((dst, size))
    ln0.send(Uid(0xE1), 800)
    net.run_for(1 * SEC)
    assert got == [(Uid(0xE1), 800)]


def test_round_trip_conversation(bridged):
    net, ln0, ether, e0, bridge = bridged
    h0_uid = net.hosts["h0"].uid
    heard_on_ethernet = []
    heard_on_autonet = []

    def answer(src, dst, size, payload):
        heard_on_ethernet.append((src, size))
        if size == 400:
            e0.send(src, 500)  # an Ethernet host answers the source it saw

    e0.on_receive = answer
    ln0.on_datagram = lambda src, et, size, pkt: heard_on_autonet.append(size)

    e0.send(h0_uid, 300)       # teaches the bridge + h0 about e0
    net.run_for(2 * SEC)
    assert heard_on_autonet == [300]
    ln0.send(Uid(0xE0), 400)   # h0's datagram crosses under h0's own UID
    net.run_for(2 * SEC)
    assert (h0_uid, 400) in heard_on_ethernet
    assert heard_on_autonet == [300, 500]


def test_bridge_refuses_oversize_packets(bridged):
    net, ln0, ether, e0, bridge = bridged
    from repro.net.packet import Packet, PacketType

    e0.send(ETHERNET_BROADCAST, 100)  # teach the bridge e0's location
    net.run_for(1 * SEC)
    big = Packet(
        dest_short=net.drivers["bridge"].short_address,
        src_short=0,
        ptype=PacketType.CLIENT,
        dest_uid=Uid(0xE0),
        src_uid=net.hosts["h0"].uid,
        data_bytes=4000,
    )
    net.drivers["h0"].send(big)
    net.run_for(1 * SEC)
    assert bridge.refused_large == 1


def test_bridge_refuses_encrypted_packets(bridged):
    net, ln0, ether, e0, bridge = bridged
    from repro.net.packet import Packet, PacketType

    e0.send(ETHERNET_BROADCAST, 100)
    net.run_for(1 * SEC)
    secret = Packet(
        dest_short=net.drivers["bridge"].short_address,
        src_short=0,
        ptype=PacketType.CLIENT,
        dest_uid=Uid(0xE0),
        src_uid=net.hosts["h0"].uid,
        data_bytes=100,
        encrypted=True,
    )
    net.drivers["h0"].send(secret)
    net.run_for(1 * SEC)
    assert bridge.refused_encrypted == 1


def test_frames_queued_across_a_failover_never_leave_with_source_short_zero(bridged, monkeypatch):
    """Readiness is decided when a frame leaves, by ``AutonetDriver.send``:
    a frame queued in the bridge's CPU while the driver still had a short
    address, emitted after a failover made it forget that address, is
    discarded rather than sent from short address 0 (the local switch)."""
    net, ln0, ether, e0, bridge = bridged
    ctrl = net.hosts["bridge"]
    sent = []

    def record(packet, send=ctrl.send):
        sent.append(packet)
        return send(packet)

    monkeypatch.setattr(ctrl, "send", record)
    for _ in range(5):
        e0.send(net.hosts["h0"].uid, 64)
    net.run_for(500_000)  # all five are in the bridge's CPU, none has left
    assert bridge.examined >= 5 and not [p for p in sent if p.ptype is PacketType.CLIENT]
    net.drivers["bridge"]._fail_over()
    net.run_for(1 * SEC)
    client = [p for p in sent if p.ptype is PacketType.CLIENT]
    assert [p.src_short for p in client if p.src_short == 0] == []
    assert bridge.a.forwarded + bridge.discarded == 5
