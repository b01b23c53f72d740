"""A 10 Mbit/s shared-medium Ethernet (the network Autonet replaced).

Every packet occupies the single shared channel for its serialization
time plus the interframe gap, so the aggregate bandwidth of the whole LAN
equals the link bandwidth -- the bottleneck motivating the paper
(section 1).  Contention is modeled as a FIFO over the shared medium,
with no collisions or backoff; at the loads the benches use, the FIFO
serialization is what dominates, matching the shape of the paper's
argument without a full CSMA/CD bit-level model.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.timers import TaskScheduler
from repro.types import Uid

#: 10 Mbit/s -> 800 ns per byte
ETHERNET_BYTE_TIME_NS = 800
#: 9.6 us interframe gap
INTERFRAME_GAP_NS = 9_600
#: preamble + SFD (8 bytes) + minimal framing overhead
FRAME_OVERHEAD_BYTES = 26
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518

#: broadcast destination
ETHERNET_BROADCAST = Uid((1 << 48) - 1)


class EthernetStation:
    """One host on the shared segment."""

    def __init__(self, ethernet: "Ethernet", uid: Uid, name: str = "") -> None:
        self.ethernet = ethernet
        self.uid = uid
        self.name = name or str(uid)
        self.on_receive: Optional[Callable[[Uid, Uid, int, object], None]] = None
        #: receive every frame on the segment (bridges observe all
        #: traffic to learn which side each host is on, section 6.8.2)
        self.promiscuous = False
        self.received = 0

    def send(self, dest: Uid, data_bytes: int, payload: object = None,
             src: Optional[Uid] = None) -> bool:
        """Transmit a frame; ``src`` lets a transparent bridge forward a
        frame under its original source address (section 6.8.2)."""
        return self.ethernet.transmit(self, dest, data_bytes, payload, src=src)


class Ethernet:
    """The shared segment."""

    def __init__(self, sim: Simulator, max_queue: int = 200) -> None:
        self.sim = sim
        self.max_queue = max_queue
        self.stations: Dict[Uid, EthernetStation] = {}
        #: the shared channel: one frame at a time, in arrival order, each
        #: delivered when its serialization and gap end
        self.medium = TaskScheduler(sim)
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_dropped = 0

    def attach(self, uid: Uid, name: str = "") -> EthernetStation:
        station = EthernetStation(self, uid, name)
        self.stations[uid] = station
        return station

    def transmit(self, station: EthernetStation, dest: Uid, data_bytes: int,
                 payload: object, src: Optional[Uid] = None) -> bool:
        if data_bytes > MAX_FRAME_BYTES - 18:
            raise ValueError(f"frame too large for Ethernet: {data_bytes}")
        if len(self.medium) >= self.max_queue:
            self.frames_dropped += 1
            return False
        self.medium.run(self._deliver, station, src or station.uid, dest, data_bytes, payload,
                        cost=self._frame_time(data_bytes))
        return True

    def _frame_time(self, data_bytes: int) -> int:
        frame = max(MIN_FRAME_BYTES, data_bytes + 18) + FRAME_OVERHEAD_BYTES
        return frame * ETHERNET_BYTE_TIME_NS + INTERFRAME_GAP_NS

    def _deliver(self, station: EthernetStation, src: Uid, dest: Uid,
                 data_bytes: int, payload: object) -> None:
        self.frames_carried += 1
        self.bytes_carried += data_bytes
        if dest == ETHERNET_BROADCAST:
            for other in self.stations.values():
                if other is not station:
                    self._hand_up(other, src, dest, data_bytes, payload)
        else:
            target = self.stations.get(dest)
            if target is not None:
                self._hand_up(target, src, dest, data_bytes, payload)
            for other in self.stations.values():
                if other.promiscuous and other is not station and other is not target:
                    self._hand_up(other, src, dest, data_bytes, payload)

    @staticmethod
    def _hand_up(station: EthernetStation, src: Uid, dest: Uid, data_bytes: int, payload: object) -> None:
        station.received += 1
        if station.on_receive is not None:
            station.on_receive(src, dest, data_bytes, payload)
