"""The Autonet-to-Ethernet bridge (section 6.8.2).

A Firefly host forwarding between the Autonet and the building Ethernet.
Unlike an Ethernet bridge it does not see all Autonet packets -- only
broadcasts and packets sent to its own short address -- so to Autonet
hosts it "behaves like a large number of hosts sharing the same short
address": it answers ARP requests on behalf of Ethernet hosts (proxy
ARP), and rewrites short addresses as packets cross.

Performance is CPU-bound for small packets and Q-bus-bound for large
ones; the model's costs are calibrated to the paper's numbers: ~5000
small packets/s discarded, >1000 small packets/s forwarded, 200-300
maximum-size packets/s, about a millisecond of latency for a small
packet.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.constants import ADDR_BROADCAST_HOSTS, MAX_BROADCAST_DATA_BYTES, US
from repro.host.driver import AutonetDriver
from repro.host.ethernet import ETHERNET_BROADCAST, EthernetStation
from repro.host.localnet import ArpRequest, ArpResponse, BROADCAST_UID
from repro.net.packet import Packet, PacketType
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


class _ForwardingCpu:
    """A bridge's forwarding processor: work items run one at a time,
    each finishing ``cost`` ns after it starts; beyond ``max_backlog``
    waiting items new work is dropped."""

    def __init__(self, sim, max_backlog: int) -> None:
        self.sim = sim
        self.max_backlog = max_backlog
        #: waiting work: (cost, fn, args)
        self._backlog: Deque[Tuple[int, Callable[..., None], tuple]] = deque()
        self._busy = False
        self.discarded = 0
        self.dropped_backlog = 0

    def _enqueue(self, cost: int, fn: Callable[..., None], *args: Any) -> None:
        if len(self._backlog) >= self.max_backlog:
            self.dropped_backlog += 1
            return
        self._backlog.append((cost, fn, args))
        if not self._busy:
            self._busy = True
            self._run_next()

    def _run_next(self) -> None:
        if not self._backlog:
            self._busy = False
            return
        cost, fn, args = self._backlog.popleft()
        self.sim.after(cost, self._finish, fn, *args)

    def _finish(self, fn: Callable[..., None], *args: Any) -> None:
        fn(*args)
        self._run_next()

    def _count_discard(self) -> None:
        self.discarded += 1


class AutonetEthernetBridge(_ForwardingCpu):
    """Bridge between one Autonet attachment and one Ethernet station."""

    def __init__(
        self,
        driver: AutonetDriver,
        station: EthernetStation,
        max_backlog: int = 64,
    ) -> None:
        super().__init__(driver.sim, max_backlog)
        self.driver = driver
        self.station = station
        self.uid = driver.controller.uid

        #: uid -> ('autonet', short_address) or ('ethernet', None); a UID
        #: is on one network or the other, never both (section 6.8.2)
        self.cache: Dict[Uid, Tuple[str, Optional[int]]] = {}

        driver.on_packet = self._from_autonet
        station.on_receive = self._from_ethernet
        # an Ethernet bridge observes all traffic on the segment to learn
        # which side each host is on (section 6.8.2)
        station.promiscuous = True

        # statistics
        self.examined = 0
        self.forwarded_to_ethernet = 0
        self.forwarded_to_autonet = 0
        self.proxy_arps = 0
        self.refused_large = 0
        self.refused_encrypted = 0

    # -- Autonet -> Ethernet ----------------------------------------------------------------

    def _from_autonet(self, packet: Packet) -> None:
        if (
            self.driver.short_address is not None
            and packet.src_short == self.driver.short_address
        ):
            return  # an echo of our own proxy forwarding (broadcast flood)
        self.examined += 1
        if packet.src_uid is not None and packet.src_uid != self.uid:
            self.cache[packet.src_uid] = ("autonet", packet.src_short)

        payload = packet.payload
        if isinstance(payload, ArpRequest):
            self._enqueue(EXAMINE_NS, self._maybe_proxy_arp, packet, payload)
            return
        if isinstance(payload, ArpResponse):
            return
        if packet.dest_uid is None or packet.dest_uid == self.uid:
            return

        side = self.cache.get(packet.dest_uid, (None, None))[0]
        broadcast = packet.dest_uid == BROADCAST_UID
        if side == "autonet" and not broadcast:
            # both ends on the Autonet: nothing to forward
            self._enqueue(EXAMINE_NS, self._count_discard)
            return
        if packet.encrypted:
            self.refused_encrypted += 1
            return
        if packet.data_bytes > MAX_BROADCAST_DATA_BYTES:
            self.refused_large += 1
            return
        cost = EXAMINE_NS + FORWARD_NS + 2 * QBUS_PER_BYTE_NS * packet.data_bytes
        dest = ETHERNET_BROADCAST if broadcast else packet.dest_uid
        self._enqueue(cost, self._emit_ethernet, dest, packet.data_bytes, packet.payload)

    def _emit_ethernet(self, dest: Uid, data_bytes: int, payload) -> None:
        self.forwarded_to_ethernet += 1
        self.station.send(dest, min(data_bytes, 1500), payload)

    def _maybe_proxy_arp(self, packet: Packet, request: ArpRequest) -> None:
        """Answer an Autonet ARP for a host known to live on the Ethernet;
        the response carries the target's UID with the bridge's short
        address, so the requester's cache points at the bridge."""
        side = self.cache.get(request.target_uid, (None, None))[0]
        if side != "ethernet" or not self.driver.ready:
            self.discarded += 1
            return
        self.proxy_arps += 1
        requester = self.cache.get(packet.src_uid, (None, None))
        to_short = requester[1] if requester[0] == "autonet" else ADDR_BROADCAST_HOSTS
        self.driver.controller.send(
            Packet(
                dest_short=to_short or ADDR_BROADCAST_HOSTS,
                src_short=self.driver.short_address,
                ptype=PacketType.CLIENT,
                dest_uid=packet.src_uid,
                src_uid=request.target_uid,  # proxy: speak as the target
                data_bytes=28,
                payload=ArpResponse(target_uid=request.target_uid),
                packet_id=self.sim.new_packet_id(),
            )
        )

    # -- Ethernet -> Autonet -----------------------------------------------------------------

    def _from_ethernet(self, src: Uid, dest: Uid, data_bytes: int, payload) -> None:
        self.examined += 1
        if src != self.uid:
            self.cache[src] = ("ethernet", None)
        if dest == self.uid:
            return
        side, short = self.cache.get(dest, (None, None))
        if side == "ethernet" and dest != ETHERNET_BROADCAST:
            self._enqueue(EXAMINE_NS, self._count_discard)
            return
        if not self.driver.ready:
            self.discarded += 1
            return
        broadcast = dest == ETHERNET_BROADCAST
        if broadcast:
            dest_short: int = ADDR_BROADCAST_HOSTS
            dest_uid = BROADCAST_UID
        else:
            dest_short = short if short is not None else ADDR_BROADCAST_HOSTS
            dest_uid = dest
        cost = EXAMINE_NS + FORWARD_NS + 2 * QBUS_PER_BYTE_NS * data_bytes
        self._enqueue(cost, self._emit_autonet, dest_short, dest_uid, src, data_bytes, payload)

    def _emit_autonet(
        self, dest_short: int, dest_uid: Uid, src_uid: Uid, data_bytes: int, payload
    ) -> None:
        self.forwarded_to_autonet += 1
        self.driver.controller.send(
            Packet(
                dest_short=dest_short,
                src_short=self.driver.short_address or 0,
                ptype=PacketType.CLIENT,
                dest_uid=dest_uid,
                src_uid=src_uid,
                data_bytes=data_bytes,
                payload=payload,
                packet_id=self.sim.new_packet_id(),
            )
        )


class AutonetAutonetBridge(_ForwardingCpu):
    """A bridge between two Autonets (section 6.8.2).

    "Slightly more complicated than an Ethernet bridge because a short
    address is not useful outside a single Autonet": forwarded packets get
    the destination's short address on the far net (or the broadcast
    address while unknown) and the *bridge's* short address there as
    source, so "to hosts on the bridged Autonets, an Autonet bridge
    behaves like a large number of hosts sharing the same short address."
    For unknown ARP targets the bridge probes the other network and
    answers the requester only once the destination has shown itself.
    """

    def __init__(self, driver_a: AutonetDriver, driver_b: AutonetDriver,
                 max_backlog: int = 64) -> None:
        if driver_a.sim is not driver_b.sim:
            raise ValueError("both attachments must share one simulator")
        super().__init__(driver_a.sim, max_backlog)
        self.drivers = {"a": driver_a, "b": driver_b}
        self.uids = {driver_a.controller.uid, driver_b.controller.uid}
        #: uid -> (side, short address on that side)
        self.cache: Dict[Uid, Tuple[str, Optional[int]]] = {}
        #: ARP targets being probed -> [(requester uid, requester side)]
        self._pending_arps: Dict[Uid, list] = {}
        driver_a.on_packet = partial(self._from_side, "a")
        driver_b.on_packet = partial(self._from_side, "b")
        self.examined = 0
        self.forwarded = 0
        self.proxy_arps = 0

    @staticmethod
    def _other(side: str) -> str:
        return "b" if side == "a" else "a"

    def _my_short(self, side: str) -> Optional[int]:
        return self.drivers[side].short_address

    def _from_side(self, side: str, packet: Packet) -> None:
        if packet.src_short == self._my_short(side):
            return  # our own flood echo
        self.examined += 1
        src = packet.src_uid
        if src is not None and src not in self.uids:
            self.cache[src] = (side, packet.src_short)
            self._answer_pending(src)

        payload = packet.payload
        if isinstance(payload, ArpRequest):
            self._enqueue(EXAMINE_NS, self._handle_arp, side, packet, payload)
            return
        if isinstance(payload, ArpResponse):
            return
        if packet.dest_uid is None or packet.dest_uid in self.uids:
            return

        dest_side = self.cache.get(packet.dest_uid, (None, None))[0]
        broadcast = packet.dest_uid == BROADCAST_UID
        if dest_side == side and not broadcast:
            self._enqueue(EXAMINE_NS, self._count_discard)
            return
        cost = EXAMINE_NS + FORWARD_NS + 2 * QBUS_PER_BYTE_NS * packet.data_bytes
        self._enqueue(cost, self._forward, self._other(side), packet)

    def _forward(self, to_side: str, packet: Packet) -> None:
        driver = self.drivers[to_side]
        if not driver.ready:
            self.discarded += 1
            return
        if packet.dest_uid == BROADCAST_UID:
            dest_short: int = ADDR_BROADCAST_HOSTS
            data = min(packet.data_bytes, MAX_BROADCAST_DATA_BYTES)
        else:
            cached = self.cache.get(packet.dest_uid, (None, None))
            dest_short = (
                cached[1] if cached[0] == to_side and cached[1] else ADDR_BROADCAST_HOSTS
            )
            data = packet.data_bytes
        self.forwarded += 1
        driver.controller.send(
            Packet(
                dest_short=dest_short,
                src_short=driver.short_address,  # the bridge's address there
                ptype=PacketType.CLIENT,
                dest_uid=packet.dest_uid,
                src_uid=packet.src_uid,
                data_bytes=data,
                payload=packet.payload,
                encrypted=packet.encrypted,
                packet_id=self.sim.new_packet_id(),
            )
        )

    # -- ARP proxying -------------------------------------------------------------------

    def _handle_arp(self, side: str, packet: Packet, request: ArpRequest) -> None:
        target = request.target_uid
        known_side = self.cache.get(target, (None, None))[0]
        if known_side == self._other(side):
            self._proxy_answer(side, packet.src_uid, target)
            return
        if known_side == side or target in self.uids:
            return  # same net (the real host answers) or ourselves
        # unsure: probe the other network; answer only if it responds
        self._pending_arps.setdefault(target, []).append((packet.src_uid, side))
        other = self.drivers[self._other(side)]
        if other.ready:
            other.controller.send(
                Packet(
                    dest_short=ADDR_BROADCAST_HOSTS,
                    src_short=other.short_address,
                    ptype=PacketType.CLIENT,
                    dest_uid=target,
                    src_uid=other.controller.uid,
                    data_bytes=28,
                    payload=ArpRequest(target_uid=target),
                    packet_id=self.sim.new_packet_id(),
                )
            )

    def _answer_pending(self, learned_uid: Uid) -> None:
        for requester_uid, side in self._pending_arps.pop(learned_uid, []):
            if self.cache.get(learned_uid, (None, None))[0] == self._other(side):
                self._proxy_answer(side, requester_uid, learned_uid)

    def _proxy_answer(self, side: str, requester_uid: Uid, target: Uid) -> None:
        driver = self.drivers[side]
        if not driver.ready:
            return
        requester = self.cache.get(requester_uid, (None, None))
        to_short = requester[1] if requester[0] == side and requester[1] else ADDR_BROADCAST_HOSTS
        self.proxy_arps += 1
        driver.controller.send(
            Packet(
                dest_short=to_short,
                src_short=driver.short_address,
                ptype=PacketType.CLIENT,
                dest_uid=requester_uid,
                src_uid=target,  # proxy: speak as the target
                data_bytes=28,
                payload=ArpResponse(target_uid=target),
                packet_id=self.sim.new_packet_id(),
            )
        )


class EthernetEthernetBridge:
    """A classic learning bridge between two Ethernets (section 6.8.2):
    forwards a frame only when the destination is, or might be, on the
    other segment."""

    def __init__(self, station_a: "EthernetStation", station_b: "EthernetStation") -> None:
        self.stations = {"a": station_a, "b": station_b}
        for side, station in self.stations.items():
            station.promiscuous = True
            station.on_receive = partial(self._from_side, side)
        self.side_of: Dict[Uid, str] = {}
        self.forwarded = 0
        self.filtered = 0

    @staticmethod
    def _other(side: str) -> str:
        return "b" if side == "a" else "a"

    def _from_side(self, side: str, src: Uid, dst: Uid, size: int, payload) -> None:
        if src in (s.uid for s in self.stations.values()):
            return
        self.side_of[src] = side
        if dst in (s.uid for s in self.stations.values()):
            return
        if self.side_of.get(dst) == side and dst != ETHERNET_BROADCAST:
            self.filtered += 1
            return  # both ends on this segment
        self.forwarded += 1
        # transparent: the frame keeps its original source address
        self.stations[self._other(side)].send(dst, size, payload, src=src)
