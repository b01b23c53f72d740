"""End-to-end smoke tests for the byte-time data plane: two switches
exchanging one-hop control-processor packets over a real link."""

import pytest

from repro.constants import ADDR_ONE_HOP_BASE, BYTE_TIME_NS
from repro.net.link import connect
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.types import Uid


@pytest.fixture
def pair():
    sim = Simulator()
    a = Switch(sim, "A", Uid(0xA))
    b = Switch(sim, "B", Uid(0xB))
    connect(sim, a.ports[3], b.ports[7], length_km=0.1)
    return sim, a, b


def _cp_packet(dest_short, size=100):
    return Packet(
        dest_short=dest_short,
        src_short=0,
        ptype=PacketType.RECONFIGURATION,
        data_bytes=size,
    )


def test_one_hop_cp_to_cp(pair):
    sim, a, b = pair
    received = []
    b.on_cp_packet = lambda packet, in_port: received.append((packet, in_port))

    # one-hop address for A's port 3 directs the packet out that port;
    # at B it arrives on port 7 and the constant table sends it to port 0
    a.inject_from_cp(_cp_packet(ADDR_ONE_HOP_BASE + 3 - 1))
    sim.run(until=10_000_000)

    assert len(received) == 1
    pkt, in_port = received[0]
    assert in_port == 7
    assert a.port_forwarded == [1] + [0] * 12
    # the one packet crossed A's port 3 to B's port 7, and nothing else did
    assert b.port_forwarded == [0] * 7 + [1] + [0] * 5
    assert not pkt.corrupted


def test_one_hop_reply(pair):
    sim, a, b = pair
    got_a, got_b = [], []
    a.on_cp_packet = lambda packet, _port: got_a.append(packet)

    def reply(packet, _port):
        got_b.append(packet)
        b.inject_from_cp(_cp_packet(ADDR_ONE_HOP_BASE + 7 - 1))

    b.on_cp_packet = reply
    a.inject_from_cp(_cp_packet(ADDR_ONE_HOP_BASE + 3 - 1))
    sim.run(until=50_000_000)
    assert len(got_b) == 1
    assert len(got_a) == 1


def test_transfer_latency_is_physical(pair):
    """A packet's delivery time covers serialization + propagation."""
    sim, a, b = pair
    times = []
    b.on_cp_packet = lambda _packet, _port: times.append(sim.now)
    pkt = _cp_packet(ADDR_ONE_HOP_BASE + 2, size=1000)
    a.inject_from_cp(pkt)
    sim.run(until=50_000_000)
    assert times, "packet not delivered"
    # serialization of 1040 wire bytes twice (link + cp drain) dominates
    assert times[0] >= pkt.wire_bytes * BYTE_TIME_NS


def test_unknown_address_discarded(pair):
    sim, a, b = pair
    received = []
    b.on_cp_packet = lambda packet, _port: received.append(packet)
    a.inject_from_cp(_cp_packet(0x123))  # no table entry anywhere
    sim.run(until=10_000_000)
    assert received == []
    assert a.packets_discarded == 1


def test_back_to_back_packets(pair):
    sim, a, b = pair
    received = []
    b.on_cp_packet = lambda packet, _port: received.append(packet)
    for _ in range(20):
        a.inject_from_cp(_cp_packet(ADDR_ONE_HOP_BASE + 2, size=500))
    sim.run(until=100_000_000)
    assert len(received) == 20
    assert all(not p.corrupted for p in received)
