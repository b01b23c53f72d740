"""The dual-ported Autonet host controller (sections 3.9, 5.2, 6.2).

A controller has two network ports cabled to (ideally different) switches;
only one is active at a time.  The active port sends the ``host``
flow-control directive; the alternate port transmits only sync commands,
which the far switch's status sampler recognizes as the
constant-BadSyntax s.host fingerprint.  Hosts obey ``stop`` from the
switch but never send ``stop`` themselves: a slow host's receive buffer
fills and the controller discards packets (section 6.2).
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Optional

from repro.net.fifo import TransmitQueue
from repro.net.flowcontrol import Directive, FlowControlReceiver, FlowControlSender
from repro.net.link import Endpoint, Transmitter
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.timers import TaskScheduler
from repro.types import Uid

#: transmit and receive buffer sizes of the Q-bus controller (section 5.2)
DEFAULT_BUFFER_BYTES = 128 * 1024


class HostPort(Endpoint):
    """One of the controller's two network ports."""

    def __init__(self, sim: Simulator, controller: "HostController", index: int) -> None:
        self.sim = sim
        self.controller = controller
        self.index = index
        self.name = f"{controller.name}.port{index}"
        self.active = False
        #: transmit staging: packets fully buffered before serialization
        self.tx_queue = TransmitQueue(sim, f"{self.name}.tx", on_head_ready=self._tx_head_ready,
                                      on_packet_drained=partial(controller._tx_complete, self))
        self.fc_receiver = FlowControlReceiver(on_change=self._fc_changed)
        self.tx = Transmitter(self, self.fc_receiver)
        self.fc_sender: Optional[FlowControlSender] = None

    # -- wiring -------------------------------------------------------------------

    def attach_link(self) -> None:
        if self.link is None:
            raise RuntimeError(f"{self.name}: no link attached")
        self.fc_sender = FlowControlSender(
            self.sim,
            deliver=self._send_directive,
            propagation_ns=0,
            # stable per-port slot phase (str hash is salted per process)
            phase=(zlib.crc32(self.name.encode()) % 256) * 80,
            is_host=True,
        )
        if not self.active:
            self.fc_sender.mute(True)

    def _send_directive(self, directive: Directive) -> None:
        self.link.send_flow_control(self, directive)

    def set_active(self, active: bool) -> None:
        if active == self.active:
            return
        self.active = active
        self.transmission_changed()
        if self.fc_sender is not None:
            self.fc_sender.mute(not active)
        self.tx_queue.recompute()

    # -- transmit path -----------------------------------------------------------------

    def _tx_head_ready(self, packet: Packet) -> None:
        # no router on a host: the head packet drains straight to the link
        self.tx_queue.connect_drain([self.tx], broadcast=packet.is_broadcast)

    def _fc_changed(self, directive: Directive) -> None:
        self.tx_queue.recompute()

    def queued_bytes(self) -> float:
        return sum(e.size for e in self.tx_queue.queue)

    def clear_tx(self) -> None:
        """Abort queued transmissions (used when failing over)."""
        self.tx.abort()
        self.tx_queue.clear()

    # -- receive path (Endpoint interface) ----------------------------------------------

    def rx_begin_packet(self, packet: Packet, rate: float) -> None:
        pass  # arrival timing is implicit; hosts deliver on the end marker

    def rx_set_rate(self, rate: float) -> None:
        pass

    def rx_end_packet(self, packet: Packet) -> None:
        if self.controller.powered:
            self.controller._rx_complete(self, packet)

    def rx_flow_control(self, directive: Directive) -> None:
        if self.controller.powered:
            self.fc_receiver.receive(directive)

    def describe_transmission(self) -> str:
        if not self.controller.powered:
            return "silence"
        return "normal" if self.active else "sync-only"

    def on_link_state_change(self) -> None:
        if (
            self.link is not None
            and self.link.state.name == "UP"
            and self.fc_sender is not None
            and self.active
        ):
            self.fc_sender.reannounce()


class HostController:
    """The network controller of one host."""

    def __init__(self, sim: Simulator, name: str, uid: Uid) -> None:
        self.sim = sim
        self.name = name
        self.uid = uid
        self.powered = True
        self.ports = [HostPort(sim, self, 0), HostPort(sim, self, 1)]
        self.active_index = 0
        self.ports[0].active = True  # before attach; mute applied on attach
        self.tx_buffer_bytes = DEFAULT_BUFFER_BYTES
        self.rx_buffer_bytes = DEFAULT_BUFFER_BYTES
        self._rx_held = 0
        #: delivery hook (the driver); receives (packet)
        self.on_receive: Optional[Callable[[Packet], None]] = None
        #: per-packet receive processing time before the buffer frees
        self.rx_processing_ns = 0
        #: the receive processor: a slow consumer hands packets up one at
        #: a time, each ``rx_processing_ns`` after it starts
        self.rx = TaskScheduler(sim)

        # statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped_rx = 0
        self.packets_dropped_tx = 0
        self.crc_errors = 0

    # -- port selection ---------------------------------------------------------------------

    @property
    def active_port(self) -> HostPort:
        return self.ports[self.active_index]

    def select_port(self, index: int) -> None:
        """Switch the active network port (driver failover, section 6.8.3)."""
        if index == self.active_index:
            return
        self.active_port.clear_tx()
        self.active_port.set_active(False)
        self.active_index = index
        self.active_port.set_active(True)

    # -- transmit -----------------------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue a packet on the active port.

        Returns False when the transmit buffer is full (the host software
        would block its sending threads, section 6.2).
        """
        if not self.powered:
            return False
        port = self.active_port
        if port.queued_bytes() + packet.wire_bytes > self.tx_buffer_bytes:
            self.packets_dropped_tx += 1
            return False
        packet.created_at = packet.created_at or self.sim.now
        port.tx_queue.enqueue(packet)
        return True

    def _tx_complete(self, port: HostPort, packet: Packet) -> None:
        self.packets_sent += 1

    # -- receive ------------------------------------------------------------------------------

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
        self.rx.run(self._hand_up, packet, cost=self.rx_processing_ns)

    def _hand_up(self, packet: Packet) -> None:
        self._rx_held -= packet.wire_bytes
        if self.on_receive is not None:
            self.on_receive(packet)

    # -- power ---------------------------------------------------------------------------------

    def power_off(self) -> None:
        """Host powered down: its links reflect (coax) or go silent."""
        self.powered = False
        for port in self.ports:
            port.transmission_changed()
            port.clear_tx()
            if port.fc_sender is not None:
                port.fc_sender.mute(True)

    def power_on(self) -> None:
        self.powered = True
        for port in self.ports:
            port.transmission_changed()
        active = self.active_port
        if active.fc_sender is not None:
            active.fc_sender.mute(False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostController {self.name} uid={self.uid}>"
