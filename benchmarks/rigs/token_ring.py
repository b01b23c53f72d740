"""An FDDI-like 100 Mbit/s token ring (the paper's commercial comparator).

Section 1's argument against FDDI: the aggregate network bandwidth is
limited to the link bandwidth, and ring latency grows with the number of
stations.  This model captures exactly those properties: a token rotates
around N stations (each adding a per-station latency plus propagation);
the token holder transmits queued frames up to a token-holding time;
frames traverse the ring to their destination.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.constants import US
from repro.sim.engine import Simulator
from repro.types import Uid

#: 100 Mbit/s -> 80 ns per byte
RING_BYTE_TIME_NS = 80
#: per-station repeater latency (FDDI-class)
STATION_LATENCY_NS = 600
#: per-hop fiber propagation (station spacing ~100 m)
HOP_PROPAGATION_NS = 500
#: token-holding time per visit
DEFAULT_THT_NS = 400 * US
RING_BROADCAST = Uid((1 << 48) - 1)


class RingStation:
    """One station on the ring."""

    def __init__(self, ring: "TokenRing", uid: Uid, index: int) -> None:
        self.ring = ring
        self.uid = uid
        self.index = index
        self.queue: Deque[Tuple[Uid, int, object, int]] = deque()
        self.on_receive: Optional[Callable[[Uid, Uid, int, object], None]] = None
        self.sent = 0
        self.received = 0

    def send(self, dest: Uid, data_bytes: int, payload: object = None) -> bool:
        if len(self.queue) >= self.ring.max_queue:
            self.ring.frames_dropped += 1
            return False
        self.queue.append((dest, data_bytes, payload, self.ring.sim.now))
        return True


class TokenRing:
    """The rotating-token MAC over a ring of stations."""

    def __init__(
        self,
        sim: Simulator,
        n_stations: int,
        tht_ns: int = DEFAULT_THT_NS,
        max_queue: int = 200,
    ) -> None:
        self.sim = sim
        self.tht_ns = tht_ns
        self.max_queue = max_queue
        self.stations: List[RingStation] = [
            RingStation(self, Uid(0x900000000000 + i), i) for i in range(n_stations)
        ]
        self.by_uid: Dict[Uid, RingStation] = {s.uid: s for s in self.stations}
        self._holder = 0
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_dropped = 0
        self.latency_sum_ns = 0
        sim.call_soon(self._token_arrives)

    def hop_delay(self) -> int:
        return STATION_LATENCY_NS + HOP_PROPAGATION_NS

    def ring_hops(self, src_index: int, dst_index: int) -> int:
        n = len(self.stations)
        return (dst_index - src_index) % n or n

    def _token_arrives(self) -> None:
        station = self.stations[self._holder]
        spent = 0
        while station.queue and spent < self.tht_ns:
            dest, data_bytes, payload, queued_at = station.queue.popleft()
            frame_ns = (data_bytes + 28) * RING_BYTE_TIME_NS
            spent += frame_ns
            if dest == RING_BROADCAST:
                hops = len(self.stations)
                for other in self.stations:
                    if other is not station:
                        arrival = spent + self.ring_hops(station.index, other.index) * self.hop_delay()
                        self.sim.after(arrival, self._deliver, station, other, dest, data_bytes, payload, queued_at)
            else:
                target = self.by_uid.get(dest)
                if target is not None:
                    hops = self.ring_hops(station.index, target.index)
                    arrival = spent + hops * self.hop_delay()
                    self.sim.after(arrival, self._deliver, station, target, dest, data_bytes, payload, queued_at)
            self.frames_carried += 1
            self.bytes_carried += data_bytes
            station.sent += 1
        # pass the token to the next station
        self._holder = (self._holder + 1) % len(self.stations)
        self.sim.after(spent + self.hop_delay(), self._token_arrives)

    def _deliver(self, src: RingStation, dst: RingStation, dest: Uid, data_bytes: int, payload: object, queued_at: int) -> None:
        dst.received += 1
        self.latency_sum_ns += self.sim.now - queued_at
        if dst.on_receive is not None:
            dst.on_receive(src.uid, dest, data_bytes, payload)

    def mean_latency_ns(self) -> float:
        delivered = sum(s.received for s in self.stations)
        return self.latency_sum_ns / delivered if delivered else 0.0
