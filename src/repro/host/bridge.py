"""The bridges of section 6.8.2.

:class:`Bridge` is a Firefly host forwarding between an Autonet and the
building Ethernet, or between two Autonets.  Unlike an Ethernet bridge
it does not see all Autonet packets -- only broadcasts and packets sent
to its own short address -- so to Autonet hosts it "behaves like a large
number of hosts sharing the same short address": it answers ARP requests
on behalf of hosts on the other side (proxy ARP), and rewrites short
addresses as packets cross.

Performance is CPU-bound for small packets and Q-bus-bound for large
ones; the model's costs are calibrated to the paper's numbers: ~5000
small packets/s discarded, >1000 small packets/s forwarded, 200-300
maximum-size packets/s, about a millisecond of latency for a small
packet.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.constants import ADDR_BROADCAST_HOSTS, MAX_BROADCAST_DATA_BYTES, MAX_DATA_BYTES, US
from repro.host.driver import AutonetDriver
from repro.host.ethernet import EthernetStation
from repro.host.localnet import ArpRequest, ArpResponse, BROADCAST_UID
from repro.net.packet import Packet
from repro.sim.timers import TaskScheduler
from repro.types import Uid

# Per-packet CPU and I/O costs (two processors are dedicated to
# forwarding, so examine and forward overlap only partially).
#: look at a packet and decide (discard path): ~5000/s
EXAMINE_NS = 200 * US
#: forwarding work beyond examination (small packet): ~1000/s total
FORWARD_NS = 650 * US
#: effective Q-bus transfer cost per byte including DMA setup, paid
#: twice (in and out); calibrated to the paper's 200-300 max-size
#: packets per second
QBUS_PER_BYTE_NS = 800


class _AutonetEnd:
    """A bridge's Autonet attachment, one host driver.  It sees only
    broadcasts and packets to its own short address, and everything it
    sends leaves under that address, so "to hosts on the bridged Autonets,
    an Autonet bridge behaves like a large number of hosts sharing the same
    short address" (section 6.8.2)."""

    carries_encrypted = True
    max_data_bytes = MAX_DATA_BYTES
    #: an unknown ARP target may be on this Autonet: ask it
    probes = True

    def __init__(self, bridge: "Bridge", driver: AutonetDriver, name: str) -> None:
        self.bridge = bridge
        self.driver = driver
        self.uid = driver.controller.uid
        self.name = name
        self.forwarded = 0
        driver.on_packet = self._receive

    def _receive(self, packet: Packet) -> None:
        if packet.src_short == self.driver.short_address:
            return  # our own flood echo
        self.bridge._receive(self, packet.src_uid, packet.dest_uid, packet.data_bytes,
                             packet.payload, packet.src_short, packet.encrypted)

    def send(self, dest_uid: Uid, src_uid: Uid, data_bytes: int, payload,
             encrypted: bool = False) -> bool:
        """One CLIENT packet, addressed to the destination's short address
        here once the bridge has learned it, else to every host."""
        if dest_uid == BROADCAST_UID:
            dest_short = ADDR_BROADCAST_HOSTS
            data_bytes = min(data_bytes, MAX_BROADCAST_DATA_BYTES)
        else:
            end, short = self.bridge.cache.get(dest_uid, (None, None))
            dest_short = short if end == self.name and short else ADDR_BROADCAST_HOSTS
        return self.driver.send(Packet(
            dest_short=dest_short, src_short=0, dest_uid=dest_uid, src_uid=src_uid,
            data_bytes=data_bytes, payload=payload, encrypted=encrypted,
            packet_id=self.bridge.sim.new_packet_id(),
        ))


class _EthernetEnd:
    """A bridge's Ethernet attachment, one promiscuous station: it hears
    every frame on the segment, sends under the original source UID (so
    ``BROADCAST_UID``, which is ``ETHERNET_BROADCAST``, crosses as itself),
    carries neither encrypted nor over-1500-byte packets, and cannot probe."""

    name = "ethernet"
    carries_encrypted = False
    max_data_bytes = MAX_BROADCAST_DATA_BYTES
    probes = False

    def __init__(self, bridge: "Bridge", station: EthernetStation) -> None:
        self.uid = station.uid
        self.station = station
        self.forwarded = 0
        station.promiscuous = True
        station.on_receive = partial(bridge._receive, self)

    def send(self, dest_uid: Uid, src_uid: Uid, data_bytes: int, payload,
             encrypted: bool = False) -> bool:
        return self.station.send(dest_uid, data_bytes, payload, src=src_uid)


class Bridge:
    """A Firefly bridge between two networks (section 6.8.2), each end an
    Autonet driver or an Ethernet station.

    It learns which end each UID lives on from every packet it hears,
    filters a unicast whose destination is on the side it came from,
    answers ARP on behalf of hosts on the other side (probing that side
    first when it can and the target is unknown) and re-sends everything
    else from the other end, each on the forwarding CPU (``cpu``): work
    items run one at a time, each finishing its cost after it starts, and
    beyond ``max_backlog`` waiting items new work is dropped.  Counters:
    ``examined``, ``proxy_arps``, ``refused_large``, ``refused_encrypted``,
    ``discarded`` and ``dropped_backlog`` here, ``forwarded`` per end
    (``a``, ``b``).
    """

    def __init__(self, a: Union[AutonetDriver, EthernetStation],
                 b: Union[AutonetDriver, EthernetStation], max_backlog: int = 64) -> None:
        ethernet = [isinstance(device, EthernetStation) for device in (a, b)]
        sim_a, sim_b = (d.ethernet.sim if e else d.sim for d, e in zip((a, b), ethernet))
        if sim_a is not sim_b or all(ethernet):  # checked before either end is wired
            raise ValueError("two networks of one simulator, at most one an Ethernet")
        self.sim = sim_a
        self.max_backlog = max_backlog
        self.cpu = TaskScheduler(sim_a)
        self.a, self.b = (
            _EthernetEnd(self, device) if isinstance(device, EthernetStation)
            else _AutonetEnd(self, device, name)
            for device, name in ((a, "a"), (b, "b"))
        )
        self.uids = {self.a.uid, self.b.uid}
        #: uid -> (name of the end it lives behind, its short address
        #: there or None); a UID is behind one end, never both
        self.cache: Dict[Uid, Tuple[str, Optional[int]]] = {}
        #: ARP targets being probed -> [(requester uid, end it asked at)]
        self._pending_arps: Dict[Uid, list] = {}
        self.examined = 0
        self.proxy_arps = 0
        self.refused_large = 0
        self.refused_encrypted = 0
        self.discarded = 0
        self.dropped_backlog = 0

    def _enqueue(self, cost: int, fn: Callable[..., None], *args: Any) -> None:
        if len(self.cpu) >= self.max_backlog:
            self.dropped_backlog += 1
        else:
            self.cpu.run(fn, *args, cost=cost)

    def _count_discard(self) -> None:
        self.discarded += 1

    def _other(self, end):
        return self.b if end is self.a else self.a

    def _receive(self, end, src: Uid, dest: Uid, data_bytes: int, payload,
                 src_short: Optional[int] = None, encrypted: bool = False) -> None:
        self.examined += 1
        if src is not None and src not in self.uids:
            self.cache[src] = (end.name, src_short)
            for requester, asked in self._pending_arps.pop(src, ()):
                if asked is not end:
                    self._proxy_answer(asked, requester, src)
        if isinstance(payload, ArpRequest):
            self._enqueue(EXAMINE_NS, self._arp, end, src, payload.target_uid)
            return
        if isinstance(payload, ArpResponse) or dest is None or dest in self.uids:
            return
        if dest != BROADCAST_UID and self.cache.get(dest, (None,))[0] == end.name:
            self._enqueue(EXAMINE_NS, self._count_discard)  # both ends on this side
            return
        out = self._other(end)
        if encrypted and not out.carries_encrypted:
            self.refused_encrypted += 1
        elif data_bytes > out.max_data_bytes:
            self.refused_large += 1
        else:
            cost = EXAMINE_NS + FORWARD_NS + 2 * QBUS_PER_BYTE_NS * data_bytes
            self._enqueue(cost, self._forward, out, dest, src, data_bytes, payload, encrypted)

    def _forward(self, end, dest: Uid, src: Uid, data_bytes: int, payload,
                 encrypted: bool) -> None:
        if end.send(dest, src, data_bytes, payload, encrypted):
            end.forwarded += 1
        else:
            self.discarded += 1

    # -- ARP proxying -------------------------------------------------------------------

    def _arp(self, end, requester: Uid, target: Uid) -> None:
        """Answer for a target known to live behind the other end; probe
        that end for an unknown one if it can, and answer once the target
        shows itself; otherwise the request is discarded."""
        other = self._other(end)
        side = self.cache.get(target, (None,))[0]
        if side == other.name:
            self._proxy_answer(end, requester, target)
        elif side is None and target not in self.uids and other.probes:
            self._pending_arps.setdefault(target, []).append((requester, end))
            other.send(target, other.uid, 28, ArpRequest(target_uid=target))
        else:
            self.discarded += 1

    def _proxy_answer(self, end, requester: Uid, target: Uid) -> None:
        """The response speaks as the target, from the bridge's address,
        so the requester's cache points at the bridge."""
        if end.send(requester, target, 28, ArpResponse(target_uid=target)):
            self.proxy_arps += 1
        else:
            self.discarded += 1
