"""Two serial servers as the hand-rolled loops that were replaced.

:class:`repro.host.ethernet.Ethernet` carries its frames, and a slow
:class:`repro.host.controller.HostController` hands its packets up, on a
:class:`repro.sim.timers.TaskScheduler`.  Before that, each ran its own
queue: the segment a ``_queue`` / ``_busy`` / ``_start_next`` loop that
started the next frame at the end of a delivery, the controller an
``_rx_backlog`` / ``_process_one`` loop that freed a packet's bytes and
handed it up ``rx_processing_ns`` after the one before.  Both loops are
kept here as they were, as subclasses that override only the methods the
scheduler replaced.  ``tests/host/test_serial_server_oracle.py`` holds the
scheduler to them.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.host.controller import HostController, HostPort
from repro.host.ethernet import (
    ETHERNET_BROADCAST,
    MAX_FRAME_BYTES,
    Ethernet,
    EthernetStation,
)
from repro.net.packet import Packet
from repro.types import Uid


class NaiveEthernet(Ethernet):
    """The segment with its own FIFO over the shared medium."""

    def __init__(self, sim, name: str = "ether0", max_queue: int = 200) -> None:
        super().__init__(sim, name, max_queue)
        self._queue: Deque[Tuple[EthernetStation, Uid, Uid, int, object]] = deque()
        self._busy = False

    def transmit(self, station: EthernetStation, dest: Uid, data_bytes: int,
                 payload: object, src: Optional[Uid] = None) -> bool:
        if data_bytes > MAX_FRAME_BYTES - 18:
            raise ValueError(f"frame too large for Ethernet: {data_bytes}")
        if len(self._queue) >= self.max_queue:
            self.frames_dropped += 1
            return False
        self._queue.append((station, src or station.uid, dest, data_bytes, payload))
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        station, src, dest, data_bytes, payload = self._queue.popleft()
        self.sim.after(
            self._frame_time(data_bytes), self._deliver,
            station, src, dest, data_bytes, payload,
        )

    def _deliver(self, station: EthernetStation, src: Uid, dest: Uid,
                 data_bytes: int, payload: object) -> None:
        self.frames_carried += 1
        self.bytes_carried += data_bytes
        station.sent += 1
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
        self._start_next()


class NaiveController(HostController):
    """The controller with its own receive backlog."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rx_backlog: Deque[Packet] = deque()
        self._rx_processing = False

    def _rx_complete(self, port: HostPort, packet: Packet) -> None:
        if not port.active:
            return  # only one of the two connections is usable at a time (§3.9)
        if packet.corrupted:
            self.crc_errors += 1
            ib = self.sim.inband
            if ib is not None:
                ib.record_drop(packet, self.name, "crc")
            return
        if self._rx_held + packet.wire_bytes > self.rx_buffer_bytes:
            self.packets_dropped_rx += 1
            ib = self.sim.inband
            if ib is not None:
                ib.record_drop(packet, self.name, "rx-buffer-full")
            return
        self.packets_received += 1
        ib = self.sim.inband
        if ib is not None:
            ib.record_delivery(packet)
        if self.rx_processing_ns <= 0:
            if self.on_receive is not None:
                self.on_receive(packet)
            return
        # slow consumer (e.g. a bridge): buffer until processed
        self._rx_held += packet.wire_bytes
        self._rx_backlog.append(packet)
        if not self._rx_processing:
            self._rx_processing = True
            self.sim.after(self.rx_processing_ns, self._process_one)

    def _process_one(self) -> None:
        if not self._rx_backlog:
            self._rx_processing = False
            return
        packet = self._rx_backlog.popleft()
        self._rx_held -= packet.wire_bytes
        if self.on_receive is not None:
            self.on_receive(packet)
        if self._rx_backlog:
            self.sim.after(self.rx_processing_ns, self._process_one)
        else:
            self._rx_processing = False
