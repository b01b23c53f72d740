"""Hosts on a live network: address learning, datagrams, failover."""

import pytest

from repro.constants import SEC
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.network import Network
from repro.topology import line, ring


@pytest.fixture
def net_with_hosts():
    net = Network(line(2))
    h0 = net.add_host("h0", [(0, 5), (1, 5)])
    h1 = net.add_host("h1", [(1, 6), (0, 6)])
    ln0 = LocalNet(net.drivers["h0"])
    ln1 = LocalNet(net.drivers["h1"])
    assert net.run_until_converged(timeout_ns=30 * SEC), net.describe()
    return net, (h0, ln0), (h1, ln1)


def test_hosts_learn_short_addresses(net_with_hosts):
    net, (h0, ln0), (h1, ln1) = net_with_hosts
    net.run_for(5 * SEC)
    assert net.drivers["h0"].ready
    assert net.drivers["h1"].ready
    # the address encodes the switch number and attachment port
    from tests.checkers import split_short_address

    number, port = split_short_address(net.drivers["h0"].short_address)
    assert port == 5


def test_gratuitous_arp_primes_caches(net_with_hosts):
    """Hosts broadcast an ARP response when they learn their short address
    (section 6.8.1), so even first contact can go unicast."""
    net, (h0, ln0), (h1, ln1) = net_with_hosts
    net.run_for(5 * SEC)
    assert ln1.stats.gratuitous_arps >= 1
    assert h1.uid in ln0.cache
    assert ln0.cache[h1.uid].short_address == net.drivers["h1"].short_address


def test_datagram_via_broadcast_then_unicast(net_with_hosts):
    net, (h0, ln0), (h1, ln1) = net_with_hosts
    net.run_for(5 * SEC)
    got = []
    ln1.on_datagram = lambda src, et, size, pkt: got.append((src, size, pkt))

    # forget h1 (as if it had crashed and come back unnoticed): the first
    # packet falls back to the broadcast short address
    ln0.cache.pop(h1.uid, None)
    assert ln0.send(h1.uid, 1000)
    net.run_for(1 * SEC)
    assert len(got) == 1
    assert got[0][2].dest_short == 0x7FF
    assert ln0.stats.sent_to_broadcast_address == 1

    # a broadcast-addressed packet for h1's specific UID makes h1 answer
    # with an ARP response immediately, healing h0's cache
    assert h1.uid in ln0.cache
    assert ln0.cache[h1.uid].short_address == net.drivers["h1"].short_address

    assert ln0.send(h1.uid, 1000)
    net.run_for(1 * SEC)
    assert len(got) == 2
    assert got[1][2].dest_short == net.drivers["h1"].short_address
    assert ln0.stats.sent_unicast >= 1


def test_broadcast_datagram_reaches_all_hosts(net_with_hosts):
    net, (h0, ln0), (h1, ln1) = net_with_hosts
    net.run_for(5 * SEC)
    got = []
    ln1.on_datagram = lambda src, et, size, pkt: got.append(src)
    assert ln0.send(BROADCAST_UID, 800)
    net.run_for(1 * SEC)
    assert got == [h0.uid]


def test_host_failover_to_alternate_switch():
    net = Network(ring(3))
    h0 = net.add_host("h0", [(0, 5), (1, 5)])
    h1 = net.add_host("h1", [(2, 5), (1, 6)])
    ln0 = LocalNet(net.drivers["h0"])
    ln1 = LocalNet(net.drivers["h1"])
    assert net.run_until_converged(timeout_ns=30 * SEC), net.describe()
    net.run_for(5 * SEC)
    assert net.drivers["h0"].ready
    addr_before = net.drivers["h0"].short_address
    assert h0.active_index == 0

    # kill switch 0: h0 must adopt its alternate port on switch 1
    net.crash_switch(0)
    net.run_for(20 * SEC)
    assert h0.active_index == 1
    assert net.drivers["h0"].ready
    assert net.drivers["h0"].short_address != addr_before

    # traffic still flows end to end after failover
    got = []
    ln1.on_datagram = lambda src, et, size, pkt: got.append(src)
    assert ln0.send(h1.uid, 400)
    net.run_for(2 * SEC)
    assert got == [h0.uid]


def test_loopback_address(net_with_hosts):
    """FFFC reflects a host's packet back down its own link (section 6.3)."""
    net, (h0, ln0), (h1, ln1) = net_with_hosts
    net.run_for(5 * SEC)
    got = []
    net.drivers["h0"].on_packet = lambda pkt: got.append(pkt)
    from repro.net.packet import Packet

    net.drivers["h0"].send(
        Packet(dest_short=0x7FC, src_short=0, data_bytes=64, src_uid=h0.uid,
               dest_uid=h0.uid)
    )
    net.run_for(1 * SEC)
    assert len(got) == 1
    assert got[0].src_uid == h0.uid
