"""The FIFO-sizing worst case of section 6.2 (experiment E2).

The paper derives

    N >= (1 - f) N + (S - 1) + 2 W      =>  N >= (S - 1 + 128.2 L) / f

for ordinary packets (stop issued at fill fraction (1-f), one directive
slot every S slots, W = 64.1 L bytes in flight per km), and

    N >= (B + S - 1 + 128.2 L) / f

when a broadcast packet of B bytes must be absorbed after its transmitter
stops obeying ``stop``.  The rigs here reproduce the worst case by
construction -- a transmitter sending continuously into a FIFO that never
drains -- and measure the actual peak occupancy, which the bench compares
with the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import (
    BYTES_IN_FLIGHT_PER_KM,
    FLOW_CONTROL_SLOT_PERIOD,
)
from repro.net.fifo import ReceiveFifo, TransmitQueue
from repro.net.flowcontrol import FlowControlReceiver, FlowControlSender
from repro.net.link import Endpoint, Transmitter, connect
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator


def fifo_requirement(length_km: float, f: float = 0.5, s: int = FLOW_CONTROL_SLOT_PERIOD) -> float:
    """The paper's closed form: N >= (S - 1 + 2*64.1*L) / f."""
    return (s - 1 + 2 * BYTES_IN_FLIGHT_PER_KM * length_km) / f


def broadcast_fifo_requirement(
    broadcast_bytes: int,
    length_km: float,
    f: float = 0.5,
    s: int = FLOW_CONTROL_SLOT_PERIOD,
) -> float:
    """N >= (B + S - 1 + 2*64.1*L) / f (section 6.2).

    The paper's printed form uses 128.2 L = 2 W, writing the in-flight
    term once; we keep the same 2 W accounting as the unicast case.
    """
    return (broadcast_bytes + s - 1 + 2 * BYTES_IN_FLIGHT_PER_KM * length_km) / f


class _Source(Endpoint):
    """A transmitter with an always-full buffer (worst-case sender)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.buffer = TransmitQueue(sim, "source.buffer", on_head_ready=self._head_ready)
        self.fc_receiver = FlowControlReceiver(on_change=lambda d: self.buffer.recompute())
        self.tx = Transmitter(self, self.fc_receiver)

    def attach_link(self) -> None:
        pass  # sources send no flow control of their own

    def offer(self, packet: Packet) -> None:
        self.buffer.enqueue(packet)

    def _head_ready(self, packet: Packet) -> None:
        self.buffer.connect_drain([self.tx], broadcast=packet.is_broadcast)

    # receive path: ignore everything but flow control
    def rx_begin_packet(self, packet: Packet, rate: float) -> None:
        pass

    def rx_set_rate(self, rate: float) -> None:
        pass

    def rx_end_packet(self, packet: Packet) -> None:
        pass

    def rx_flow_control(self, directive) -> None:
        self.fc_receiver.receive(directive)


class _StuckReceiver(Endpoint):
    """A receive FIFO that is never drained (downstream fully blocked),
    with the standard threshold-driven flow-control sender."""

    def __init__(self, sim: Simulator, threshold_bytes: float, phase_ns: int = 0) -> None:
        self.sim = sim
        self.phase_ns = phase_ns
        self.fifo = ReceiveFifo(sim, "stuck.fifo", capacity=1 << 30)
        self.fifo.stop_threshold = threshold_bytes
        self.fifo.on_level_directive = self._level
        self.fc_sender: Optional[FlowControlSender] = None

    def attach_link(self) -> None:
        self.fc_sender = FlowControlSender(
            self.sim,
            deliver=lambda d: self.link.send_flow_control(self, d),
            propagation_ns=0,
            phase=self.phase_ns,
        )

    def _level(self, directive) -> None:
        if self.fc_sender is not None:
            self.fc_sender.set_level_directive(directive)

    def rx_begin_packet(self, packet: Packet, rate: float) -> None:
        self.fifo.begin_packet(packet, rate)

    def rx_set_rate(self, rate: float) -> None:
        self.fifo.set_in_rate(rate)

    def rx_end_packet(self, packet: Packet) -> None:
        self.fifo.end_packet(packet)

    def rx_flow_control(self, directive) -> None:
        pass


@dataclass
class BacklogResult:
    """Peak FIFO occupancy against the sizing formula."""

    length_km: float
    stop_fraction: float
    threshold_bytes: float
    peak_bytes: float
    required_bytes: float

    @property
    def within_bound(self) -> bool:
        # 2 B over the formula, for three roundings of the model: the FIFO
        # sees the stop watermark crossed half a byte late
        # (``ReceiveFifo._recompute``), a crossing between byte times waits
        # up to S rather than S - 1 byte times for its directive slot, and
        # the link rounds each way's flight to whole bytes
        # (``link.propagation_ns``).  The first two add under 1.5 B; E2's
        # five lengths round their flight down (1.0 km: 64 B, not 64.1), and
        # their worst alignment found at 10 ns steps peaks 1.28 B over.
        return self.peak_bytes <= self.required_bytes + 2.0

    @property
    def tightness(self) -> float:
        """How close the worst case comes to the bound (1.0 = exact)."""
        return self.peak_bytes / self.required_bytes if self.required_bytes else 0.0


def measure_backlog(
    length_km: float,
    f: float = 0.5,
    packet_bytes: int = 60_000,
    phase_ns: int = 0,
    start_offset_ns: int = 50_000,
) -> BacklogResult:
    """Worst case: continuous sender, receiver never drains.

    The peak occupancy must stay within the paper's N for the given f and
    L.  The stop threshold is placed at (1 - f) * N.  Sweeping
    ``start_offset_ns`` over one flow-control slot period explores every
    alignment of the threshold crossing against the directive slots; the
    worst alignment (just missing a slot) realizes the paper's S - 1 term.
    """
    sim = Simulator()
    required = fifo_requirement(length_km, f)
    threshold = (1 - f) * required
    source = _Source(sim)
    receiver = _StuckReceiver(sim, threshold, phase_ns=phase_ns)
    connect(sim, source, receiver, length_km=length_km)
    sim.at(
        start_offset_ns,
        source.offer,
        Packet(dest_short=0x100, src_short=0x101, ptype=PacketType.DIAGNOSTIC,
               data_bytes=packet_bytes),
    )
    sim.run(until=sim.now + 100_000_000)
    return BacklogResult(
        length_km=length_km,
        stop_fraction=f,
        threshold_bytes=threshold,
        peak_bytes=receiver.fifo.max_level,
        required_bytes=required,
    )


def measure_broadcast_backlog(
    broadcast_bytes: int, length_km: float, f: float = 0.5, phase_ns: int = 0
) -> BacklogResult:
    """Worst case with a broadcast: the backlog builds to the stop point,
    then a broadcast that began under ``start`` arrives in full because
    its transmitter ignores ``stop`` (the deadlock fix of section 6.6.6).
    """
    sim = Simulator()
    required = broadcast_fifo_requirement(broadcast_bytes, length_km, f)
    threshold = (1 - f) * required
    source = _Source(sim)
    receiver = _StuckReceiver(sim, threshold, phase_ns=phase_ns)
    connect(sim, source, receiver, length_km=length_km)
    # Filler traffic sized to bring the FIFO exactly to the worst-case
    # stop point: its last byte launches just before the stop directive
    # takes effect at the transmitter, so the broadcast queued behind it
    # legally "begins under start" and then ignores the stop.
    slack = (FLOW_CONTROL_SLOT_PERIOD - 1) + 2 * BYTES_IN_FLIGHT_PER_KM * length_km
    filler_wire = int(threshold + slack) - 16
    source.offer(
        Packet(dest_short=0x100, src_short=0x101, ptype=PacketType.DIAGNOSTIC,
               data_bytes=max(1, filler_wire - 40))
    )
    source.offer(
        Packet(dest_short=0x7FD, src_short=0x101, ptype=PacketType.CLIENT,
               data_bytes=max(0, broadcast_bytes - 54))
    )
    sim.run(until=sim.now + 200_000_000)
    return BacklogResult(
        length_km=length_km,
        stop_fraction=f,
        threshold_bytes=threshold,
        peak_bytes=receiver.fifo.max_level,
        required_bytes=required,
    )
