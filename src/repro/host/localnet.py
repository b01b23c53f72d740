"""LocalNet: the generic LAN layer with dynamic short-address learning
(sections 3.11, 4.3, 6.8.1).

LocalNet presents UID-addressed Ethernet datagrams to clients and hides
Autonet short addresses behind a cache.  The cache learns from the source
short-address / source-UID pair of every arriving packet, falls back to
the broadcast short address when a destination is unknown, sends directed
ARP requests when an entry goes stale, and broadcasts a gratuitous ARP
response when the host's own short address changes.  The whole algorithm
costs ~15 instructions per packet in the real system; here we count the
cache operations so E12 can report the analogous overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.constants import (
    ADDR_BROADCAST_HOSTS,
    ARP_TIMEOUT_NS,
    MAX_BROADCAST_DATA_BYTES,
    UID_CACHE_FRESH_NS,
)
from repro.host.driver import AutonetDriver
from repro.net.packet import Packet, PacketType
from repro.types import Uid

#: the all-ones UID used for broadcast datagrams
BROADCAST_UID = Uid((1 << 48) - 1)


@dataclass
class ArpRequest:
    """Who has ``target_uid``?  (RFC 826 adapted to short addresses.)"""

    target_uid: Uid


@dataclass
class ArpResponse:
    """The target answers; its short address rides in the packet header."""

    target_uid: Uid


@dataclass
class CacheEntry:
    """One UID-cache row: the learned short address and its age."""

    short_address: int
    updated_at: int
    #: pending staleness check (so one use triggers at most one ARP)
    check_pending: bool = False


@dataclass
class LocalNetStats:
    """Counters backing the E12 learning experiment."""

    sent_unicast: int = 0
    sent_to_broadcast_address: int = 0
    arp_requests_sent: int = 0
    gratuitous_arps: int = 0


class LocalNet:
    """One host's generic-LAN layer over an Autonet driver.

    ``keystore`` enables encrypted communication (section 3.10): set a
    session key per peer in ``session_keys``, then pass ``encrypt=True``
    to :meth:`send`.  Encryption costs nothing extra --
    the controller's pipelined chip runs at line rate.
    """

    def __init__(self, driver: AutonetDriver, keystore=None) -> None:
        self.driver = driver
        self.sim = driver.sim
        self.uid = driver.controller.uid
        self.cache: Dict[Uid, CacheEntry] = {}
        self.stats = LocalNetStats()
        self.keystore = keystore
        #: session key to use per destination UID
        self.session_keys: Dict[Uid, int] = {}
        #: client delivery hook: fn(src_uid, ethertype, data_bytes, packet)
        self.on_datagram: Optional[Callable[[Uid, int, int, Packet], None]] = None
        driver.on_packet = self._receive
        driver.on_address_change = self._address_changed

    # -- transmit (section 6.8.1, "Transmitting") -------------------------------------------

    def send(
        self,
        dest_uid: Uid,
        data_bytes: int,
        ethertype: int = 0x0800,
        payload: object = None,
        encrypt: bool = False,
    ) -> bool:
        """Send an Ethernet datagram over the Autonet."""
        if not self.driver.ready:
            return False
        encrypted = False
        if encrypt:
            key_id = self.session_keys.get(dest_uid)
            if self.keystore is None or key_id is None:
                return False  # no session key established with this peer
            payload = self.keystore.encrypt(key_id, payload)
            encrypted = True
        if dest_uid == BROADCAST_UID:
            return self._transmit(
                ADDR_BROADCAST_HOSTS, dest_uid, data_bytes, ethertype, payload, encrypted
            )

        entry = self.cache.get(dest_uid)
        if entry is None:
            entry = CacheEntry(ADDR_BROADCAST_HOSTS, updated_at=-(10 * UID_CACHE_FRESH_NS))
            self.cache[dest_uid] = entry

        if (
            entry.short_address == ADDR_BROADCAST_HOSTS
            and data_bytes > MAX_BROADCAST_DATA_BYTES
        ):
            # too large to broadcast and destination unknown: drop the
            # packet and send an ARP request in its place
            self._send_arp_request(dest_uid, ADDR_BROADCAST_HOSTS)
            return False

        ok = self._transmit(
            entry.short_address, dest_uid, data_bytes, ethertype, payload, encrypted
        )
        self._maybe_check_staleness(dest_uid, entry)
        return ok

    def _transmit(
        self,
        short: int,
        dest_uid: Uid,
        data_bytes: int,
        ethertype: int,
        payload: object = None,
        encrypted: bool = False,
    ) -> bool:
        if short == ADDR_BROADCAST_HOSTS:
            self.stats.sent_to_broadcast_address += 1
            data_bytes = min(data_bytes, MAX_BROADCAST_DATA_BYTES)
        else:
            self.stats.sent_unicast += 1
        return self.driver.send(
            Packet(
                dest_short=short,
                src_short=0,  # stamped by the driver
                ptype=PacketType.CLIENT,
                dest_uid=dest_uid,
                src_uid=self.uid,
                data_bytes=data_bytes,
                payload=payload,
                encrypted=encrypted,
                packet_id=self.sim.new_packet_id(),
            )
        )

    def _maybe_check_staleness(self, dest_uid: Uid, entry: CacheEntry) -> None:
        """Paper rule: if the entry was updated within the two seconds
        prior to use, or is updated within the two seconds following, do
        nothing; otherwise ARP, and on no response fall back to
        broadcast."""
        now = self.sim.now
        if now - entry.updated_at <= UID_CACHE_FRESH_NS or entry.check_pending:
            return
        entry.check_pending = True
        self.sim.after(UID_CACHE_FRESH_NS, self._check_after_grace, dest_uid, now)

    def _check_after_grace(self, dest_uid: Uid, use_time: int) -> None:
        current = self.cache.get(dest_uid)
        if current is None:
            return
        current.check_pending = False
        if current.updated_at > use_time:
            return  # refreshed in the grace window
        self._send_arp_request(dest_uid, current.short_address)
        current.check_pending = True
        self.sim.after(ARP_TIMEOUT_NS, self._expire, dest_uid, use_time)

    def _expire(self, dest_uid: Uid, use_time: int) -> None:
        latest = self.cache.get(dest_uid)
        if latest is None:
            return
        latest.check_pending = False
        if latest.updated_at <= use_time:
            # no response: equivalent to removing the entry
            latest.short_address = ADDR_BROADCAST_HOSTS

    def _send_arp_request(self, target_uid: Uid, to_short: int) -> None:
        self.stats.arp_requests_sent += 1
        self.driver.send(
            Packet(
                dest_short=to_short,
                src_short=0,
                ptype=PacketType.CLIENT,
                dest_uid=target_uid,
                src_uid=self.uid,
                data_bytes=28,
                payload=ArpRequest(target_uid=target_uid),
                packet_id=self.sim.new_packet_id(),
            )
        )

    def _send_arp_response(self, to_uid: Uid, to_short: int) -> None:
        self.driver.send(
            Packet(
                dest_short=to_short,
                src_short=0,
                ptype=PacketType.CLIENT,
                dest_uid=to_uid,
                src_uid=self.uid,
                data_bytes=28,
                payload=ArpResponse(target_uid=self.uid),
                packet_id=self.sim.new_packet_id(),
            )
        )

    def _address_changed(self, new_address: int) -> None:
        """Broadcast an ARP response so other caches update immediately
        (hosts change short addresses only across reconfigurations)."""
        self.stats.gratuitous_arps += 1
        self._send_arp_response(BROADCAST_UID, ADDR_BROADCAST_HOSTS)

    # -- receive (section 6.8.1, "Receiving") ---------------------------------------------------

    def _learn(self, uid: Uid, short: int) -> None:
        if uid is None or short == 0:
            return
        entry = self.cache.get(uid)
        if entry is None:
            self.cache[uid] = CacheEntry(short, updated_at=self.sim.now)
        else:
            entry.short_address = short
            entry.updated_at = self.sim.now

    def _receive(self, packet: Packet) -> None:
        if packet.src_uid is not None:
            self._learn(packet.src_uid, packet.src_short)

        for_us = packet.dest_uid in (self.uid, BROADCAST_UID)
        if not for_us:
            return  # misaddressed or broadcast-flooded for someone else

        if packet.encrypted:
            packet = self._decrypt(packet)
            if packet is None:
                return

        payload = packet.payload
        if isinstance(payload, ArpRequest):
            if payload.target_uid == self.uid and packet.src_uid is not None:
                entry = self.cache.get(packet.src_uid)
                to_short = entry.short_address if entry else ADDR_BROADCAST_HOSTS
                self._send_arp_response(packet.src_uid, to_short)
            return
        if isinstance(payload, ArpResponse):
            return  # learning already happened above

        if (
            packet.dest_short == ADDR_BROADCAST_HOSTS
            and packet.dest_uid == self.uid
            and packet.src_uid is not None
        ):
            # the sender fell back to broadcast: it lost our short address;
            # answer immediately so its cache heals (section 6.8.1)
            entry = self.cache.get(packet.src_uid)
            to_short = entry.short_address if entry else ADDR_BROADCAST_HOSTS
            self._send_arp_response(packet.src_uid, to_short)

        if self.on_datagram is not None:
            self.on_datagram(
                packet.src_uid, 0x0800, packet.data_bytes, packet
            )

    def _decrypt(self, packet: Packet) -> Optional[Packet]:
        """The controller's pipelined decryption: zero added latency.

        Returns a cleartext view of the packet, or None if this host
        holds no key for it (the packet is unreadable and dropped)."""
        from dataclasses import replace

        from repro.host.crypto import EncryptedPayload

        sealed = packet.payload
        if (
            self.keystore is None
            or not isinstance(sealed, EncryptedPayload)
            or not self.keystore.holds(self.uid, sealed.key_id)
        ):
            return None
        return replace(packet, payload=sealed.ciphertext, encrypted=False)
