"""LocalNet cache mechanics (section 6.8.1) in isolation, with a fake driver."""

from typing import List

import pytest

from repro.constants import SEC
from repro.host.localnet import ArpRequest, ArpResponse, BROADCAST_UID, LocalNet
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.types import Uid


class FakeController:
    def __init__(self, uid):
        self.uid = uid


class FakeDriver:
    """Captures transmissions instead of touching a network."""

    def __init__(self, sim, uid, short=0x25):
        self.sim = sim
        self.controller = FakeController(uid)
        self.short_address = short
        self.sent: List[Packet] = []
        self.on_packet = None
        self.on_address_change = None

    @property
    def ready(self):
        return self.short_address is not None

    def send(self, packet: Packet) -> bool:
        packet.src_short = self.short_address
        self.sent.append(packet)
        return True


@pytest.fixture
def rig():
    sim = Simulator()
    driver = FakeDriver(sim, Uid(0xAA))
    localnet = LocalNet(driver)
    return sim, driver, localnet


def deliver(localnet, src_uid, src_short, dest_uid, payload=None, dest_short=0x25):
    localnet._receive(
        Packet(
            dest_short=dest_short,
            src_short=src_short,
            dest_uid=dest_uid,
            src_uid=src_uid,
            data_bytes=100,
            payload=payload,
        )
    )


def test_unknown_destination_uses_broadcast_address(rig):
    sim, driver, localnet = rig
    assert localnet.send(Uid(0xBB), 500)
    assert driver.sent[-1].dest_short == 0x7FF
    assert localnet.stats.sent_to_broadcast_address == 1


def test_learning_from_arrivals(rig):
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))
    assert localnet.cache[Uid(0xBB)].short_address == 0x31
    assert localnet.send(Uid(0xBB), 500)
    assert driver.sent[-1].dest_short == 0x31
    assert localnet.stats.sent_unicast == 1


def test_broadcast_uid_always_broadcast_address(rig):
    sim, driver, localnet = rig
    assert localnet.send(BROADCAST_UID, 500)
    assert driver.sent[-1].dest_short == 0x7FF


def test_large_packet_to_unknown_dropped_with_arp(rig):
    """A packet too large to broadcast is discarded and an ARP request is
    sent in its place (section 6.8.1)."""
    sim, driver, localnet = rig
    assert not localnet.send(Uid(0xBB), 4000)
    assert isinstance(driver.sent[-1].payload, ArpRequest)
    assert [p.data_bytes for p in driver.sent if p.data_bytes == 4000] == []


def test_stale_entry_triggers_directed_arp(rig):
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))
    sim.run_for(10 * SEC)  # entry is now stale
    localnet.send(Uid(0xBB), 500)
    sim.run_for(3 * SEC)  # past the 2s grace window with no refresh
    arps = [p for p in driver.sent if isinstance(p.payload, ArpRequest)]
    assert len(arps) == 1
    assert arps[0].dest_short == 0x31  # directed, not broadcast


def test_no_arp_when_entry_fresh(rig):
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))
    localnet.send(Uid(0xBB), 500)  # within 2s of the update
    sim.run_for(6 * SEC)
    arps = [p for p in driver.sent if isinstance(p.payload, ArpRequest)]
    assert arps == []


def test_no_arp_when_refreshed_in_grace_window(rig):
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))
    sim.run_for(10 * SEC)
    localnet.send(Uid(0xBB), 500)
    sim.run_for(1 * SEC)
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))  # refresh within 2 s
    sim.run_for(6 * SEC)
    arps = [p for p in driver.sent if isinstance(p.payload, ArpRequest)]
    assert arps == []


def test_unanswered_arp_falls_back_to_broadcast(rig):
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA))
    sim.run_for(10 * SEC)
    localnet.send(Uid(0xBB), 500)
    sim.run_for(6 * SEC)  # grace + ARP timeout expire with no answer
    assert localnet.cache[Uid(0xBB)].short_address == 0x7FF


def test_broadcast_addressed_unicast_uid_triggers_arp_response(rig):
    """A packet to the broadcast short address but our specific UID means
    the sender lost our address: answer immediately (section 6.8.1)."""
    sim, driver, localnet = rig
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xAA), dest_short=0x7FF)
    responses = [p for p in driver.sent if isinstance(p.payload, ArpResponse)]
    assert len(responses) == 1
    assert responses[0].dest_short == 0x31


def test_arp_request_for_us_answered(rig):
    sim, driver, localnet = rig
    deliver(
        localnet, Uid(0xBB), 0x31, Uid(0xAA),
        payload=ArpRequest(target_uid=Uid(0xAA)), dest_short=0x7FF,
    )
    responses = [p for p in driver.sent if isinstance(p.payload, ArpResponse)]
    assert len(responses) == 1


def test_arp_request_for_other_host_ignored(rig):
    sim, driver, localnet = rig
    deliver(
        localnet, Uid(0xBB), 0x31, Uid(0xCC),
        payload=ArpRequest(target_uid=Uid(0xCC)), dest_short=0x7FF,
    )
    responses = [p for p in driver.sent if isinstance(p.payload, ArpResponse)]
    assert responses == []


def test_misaddressed_packets_filtered(rig):
    """The receiving host checks the destination UID and discards
    misaddressed packets (section 6.8)."""
    sim, driver, localnet = rig
    got = []
    localnet.on_datagram = lambda *a: got.append(a)
    deliver(localnet, Uid(0xBB), 0x31, Uid(0xCC))
    assert got == []
    deliver(localnet, Uid(0xBB), 0x31, localnet.uid)
    assert [src for src, *_ in got] == [Uid(0xBB)]


def test_address_change_broadcasts_gratuitous_arp(rig):
    sim, driver, localnet = rig
    localnet._address_changed(0x99)
    grat = [p for p in driver.sent if isinstance(p.payload, ArpResponse)]
    assert len(grat) == 1
    assert grat[0].dest_short == 0x7FF
    assert localnet.stats.gratuitous_arps == 1
