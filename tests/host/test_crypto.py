"""Integrated encryption (sections 3.10, 6.8): line-rate, key-gated."""

import pytest

from repro.constants import SEC
from repro.host.localnet import LocalNet
from repro.network import Network
from repro.topology import line
from repro.types import Uid
from tests.host.keystore import KeyStore

#: the one session key id these tests hand out
KEY = 1


class TestKeyStore:
    def test_grant_and_hold(self):
        ks = KeyStore()
        ks.grant(KEY, Uid(1))
        ks.grant(KEY, Uid(2))
        assert ks.holds(Uid(1), KEY)
        assert ks.holds(Uid(2), KEY)
        assert not ks.holds(Uid(3), KEY)
        assert not ks.holds(Uid(1), KEY + 1)

    def test_ciphertext_opaque_repr(self):
        sealed = KeyStore().encrypt(KEY, "secret")
        assert "secret" not in repr(sealed)


@pytest.fixture
def secure_net():
    net = Network(line(2))
    keystore = KeyStore()
    net.add_host("alice", [(0, 5), (1, 5)])
    net.add_host("bob", [(1, 6), (0, 6)])
    net.add_host("eve", [(0, 7), (1, 7)])
    alice, bob, eve = (LocalNet(net.drivers[name]) for name in ("alice", "bob", "eve"))
    for localnet in (alice, bob, eve):
        localnet.keystore = keystore
    key = KEY
    keystore.grant(key, net.hosts["alice"].uid)
    keystore.grant(key, net.hosts["bob"].uid)
    alice.session_keys[net.hosts["bob"].uid] = key
    bob.session_keys[net.hosts["alice"].uid] = key
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    return net, alice, bob, eve, key


def test_encrypted_datagram_delivered_in_clear_to_holder(secure_net):
    net, alice, bob, eve, key = secure_net
    got = []
    bob.on_datagram = lambda src, et, size, pkt: got.append(pkt)
    assert alice.send(net.hosts["bob"].uid, 900, payload="launch codes",
                      encrypt=True)
    net.run_for(1 * SEC)
    assert len(got) == 1
    assert got[0].payload == "launch codes"
    assert not got[0].encrypted  # decrypted in the controller pipeline


def test_non_holder_cannot_read(secure_net):
    net, alice, bob, eve, key = secure_net
    # misdeliver: alice "mistakenly" sends the encrypted packet to eve
    alice.session_keys[net.hosts["eve"].uid] = key
    got = []
    eve.on_datagram = lambda src, et, size, pkt: got.append(pkt)
    arrived = []
    receive = net.drivers["eve"].on_packet
    net.drivers["eve"].on_packet = lambda pkt: (arrived.append(pkt), receive(pkt))
    assert alice.send(net.hosts["eve"].uid, 500, payload="secret", encrypt=True)
    net.run_for(1 * SEC)
    assert got == []
    # it reached eve's LocalNet sealed, and went no further
    assert [pkt.payload.key_id for pkt in arrived if pkt.encrypted] == [key]


def test_send_without_session_key_refused(secure_net):
    net, alice, bob, eve, key = secure_net
    assert not eve.send(net.hosts["bob"].uid, 100, encrypt=True)


def test_no_latency_penalty(secure_net):
    """Section 3.10: encrypted packets have the same latency as
    unencrypted ones (the chip is pipelined)."""
    net, alice, bob, eve, key = secure_net
    times = []
    bob.on_datagram = lambda src, et, size, pkt: times.append(
        net.sim.now - pkt.created_at
    )
    assert alice.send(net.hosts["bob"].uid, 1000)
    net.run_for(1 * SEC)
    assert alice.send(net.hosts["bob"].uid, 1000, encrypt=True)
    net.run_for(1 * SEC)
    assert len(times) == 2
    plain, secure = times
    assert secure == plain  # byte-for-byte identical timing


def test_wire_size_unchanged(secure_net):
    """The 26-byte encryption field is part of every header (section 6.8):
    encrypting does not change a packet's wire size."""
    from repro.net.packet import Packet

    clear = Packet(dest_short=0x20, src_short=0x30, data_bytes=1000)
    sealed = Packet(dest_short=0x20, src_short=0x30, data_bytes=1000, encrypted=True)
    assert clear.wire_bytes == sealed.wire_bytes
