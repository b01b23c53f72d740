"""Link units: the per-port hardware of an Autonet switch (section 5.1).

A link unit terminates one full-duplex link.  The receive path buffers
arriving bytes in the 4096-byte FIFO, captures the address bytes for the
router, and derives the start/stop flow control sent back on the reverse
channel.  The transmit path relays a draining FIFO onto the link.  The
unit exposes the status bits of section 6.5.2 that Autopilot's status
sampler polls, and the control-register operations (send idhy, reset).
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Optional

from repro.constants import CUT_THROUGH_BYTES, DEFAULT_FIFO_BYTES, DEFAULT_STOP_FRACTION
from repro.net.fifo import ReceiveFifo
from repro.net.flowcontrol import Directive, FlowControlReceiver, FlowControlSender
from repro.net.link import Endpoint, Transmitter
from repro.net.packet import Packet
from repro.sim.engine import Simulator


# The status word of section 6.5.2, one bit per condition.  IS_HOST,
# BAD_CODE, BAD_SYNTAX, START_SEEN and STOP_SEEN (only stop directives are
# being received -- distinct from silence: an alternate host port sends no
# directives at all) are *chronic*: they hold for as long as what the port
# hears does not change.  OVERFLOW and UNDERFLOW are *events* since the last
# read; IDHY_SEEN is both (a latched idhy recurs every flow-control slot).
# PROGRESS_SEEN compares the FIFO's forwarding counters between two reads.
(IS_HOST, BAD_CODE, BAD_SYNTAX, OVERFLOW, UNDERFLOW, IDHY_SEEN, PROGRESS_SEEN,
 START_SEEN, STOP_SEEN) = (1 << bit for bit in range(9))


class LinkUnit(Endpoint):
    """One external switch port: receive FIFO, flow control, transmitter."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port_no: int,
        on_head_ready: Callable[[int, Packet], None],
        on_packet_drained: Callable[[int, Packet], None],
        fifo_bytes: int = DEFAULT_FIFO_BYTES,
        stop_fraction: float = DEFAULT_STOP_FRACTION,
        cut_through_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.port_no = port_no
        #: false while the owning switch is powered off
        self.enabled = True
        #: the section 7 proposal: tag up- and down-direction traffic with
        #: different start commands so a link unit can discard packets
        #: arriving in the wrong direction (its own reflected signal).
        #: Off by default -- the paper proposes but does not build it.
        self.discard_misdirected = False
        #: invoked when a panic directive arrives (wired by the switch)
        self.on_panic: Optional[Callable[[], None]] = None
        self.misdirected_discards = 0
        #: packets lost to receive-FIFO overflow on this port
        self.overflow_drops = 0
        # cumulative time the far end's stop directive gated this
        # transmitter (the paper's congestion signature, section 6.2)
        self._stop_time_ns = 0
        self._stopped_since: Optional[int] = None

        #: the fifo currently draining through this port's transmitter
        self._drain_source: Optional[ReceiveFifo] = None
        self.fifo = ReceiveFifo(
            sim,
            name=f"{name}.fifo",
            capacity=fifo_bytes,
            stop_fraction=stop_fraction,
            cut_through_bytes=(
                CUT_THROUGH_BYTES if cut_through_bytes is None else cut_through_bytes
            ),
            on_head_ready=partial(on_head_ready, port_no),
            on_level_directive=self._level_directive,
            on_packet_drained=partial(on_packet_drained, port_no),
            on_overflow=self._note_overflow,
            on_underflow=self._note_underflow,
        )
        # The value latched at power-up is unpredictable (section 6.2); we
        # default to the permissive value so a port wired to an alternate
        # host port forwards packets (which the host then ignores), as the
        # design intended.  Tests preset STOP to exercise the oversight.
        self.fc_receiver = FlowControlReceiver(
            on_change=self._fc_changed, initial=Directive.START
        )
        self.tx = Transmitter(self, self.fc_receiver)
        #: created when a link is attached (needs the endpoint wired first)
        self.fc_sender: Optional[FlowControlSender] = None
        #: forced directive while the port is administratively dead
        self._forced_directive: Optional[Directive] = None
        # the status word: event bits accumulate until read, chronic bits
        # are re-latched by on_heard_change; plus ProgressSeen bookkeeping
        self._events = 0
        self._last_bytes_forwarded = 0.0
        self._last_packets_seen = 0
        self.on_heard_change()

    # -- wiring ----------------------------------------------------------------------

    def attach_link(self) -> None:
        """Called once the link reference is set; builds the fc sender."""
        if self.link is None:
            raise RuntimeError(f"{self.name}: no link attached")
        self.fc_sender = FlowControlSender(
            self.sim,
            deliver=self._send_directive,
            propagation_ns=0,
            # per-port slot phase, stable across runs (str hash is salted)
            phase=(zlib.crc32(self.name.encode()) % 256) * 80,
        )
        if self._forced_directive is not None:
            self.fc_sender.force(self._forced_directive)
        if self.fifo.stopped:
            self.fc_sender.set_level_directive(Directive.STOP)

    def _send_directive(self, directive: Directive) -> None:
        self.link.send_flow_control(self, directive)

    @property
    def connected(self) -> bool:
        return self.link is not None

    def set_enabled(self, enabled: bool) -> None:
        """Power the unit with its switch; the far end hears the change."""
        self.enabled = enabled
        self.transmission_changed()

    # -- receive path (Endpoint interface) ----------------------------------------------

    def rx_begin_packet(self, packet: Packet, rate: float) -> None:
        if not self.enabled:
            return
        if (
            self.discard_misdirected
            and self.link is not None
            and self.link.received_condition(self) == "own-signal"
        ):
            # direction-tagged start commands reveal the packet as our own
            # reflection: discard it in the link unit (section 7 proposal).
            # The stray end marker that follows is harmless: with no
            # matching FIFO entry it is ignored.
            self.misdirected_discards += 1
            ib = self.sim.inband
            if ib is not None:
                ib.record_drop(packet, self.name, "misdirected")
            return
        self.fifo.begin_packet(packet, rate)

    def rx_set_rate(self, rate: float) -> None:
        if self.enabled:
            self.fifo.set_in_rate(rate)

    def rx_end_packet(self, packet: Packet) -> None:
        if self.enabled:
            self.fifo.end_packet(packet)

    def rx_flow_control(self, directive: Directive) -> None:
        if not self.enabled:
            return
        if directive is Directive.IDHY:
            self._events |= IDHY_SEEN
        self.fc_receiver.receive(directive, self.sim.now)
        if directive is Directive.PANIC and self.on_panic is not None:
            # panic forces this link unit to reset: clear the receive FIFO
            # and reinitialize the link control hardware so that
            # reconfiguration packets can get through (section 6.1)
            self.on_panic()

    def describe_transmission(self) -> str:
        return "normal" if self.enabled else "silence"

    def on_link_state_change(self) -> None:
        # Directives recur every flow-control slot on a real channel, but
        # our model only delivers changes.  When the physical state of the
        # link changes -- healed, or now reflecting our own signal back --
        # the periodic stream starts reaching a (possibly new) receiver,
        # which the model expresses by re-announcing the current value.
        # A CUT link's re-announcement is dropped by the link itself, so
        # the far latch keeps the last directive (the §6.2 oversight).
        self.on_heard_change()
        if self.fc_sender is not None:
            self.fc_sender.reannounce()

    def on_heard_change(self) -> None:
        """Re-latch the chronic status bits from what the port hears now:
        the link's condition, the far end's transmission and the latched
        directive (directives recur every flow-control slot on a real
        link, so while the far end's latched transmission is start/host,
        stop or idhy, the matching bit is a chronic condition)."""
        condition = self.link.received_condition(self) if self.link else "silence"
        last = self.fc_receiver.last
        word = IS_HOST if last is Directive.HOST else 0
        if condition in ("silence", "noise"):
            word |= BAD_CODE
        elif condition == "sync-only":
            word |= BAD_SYNTAX
        elif last is Directive.START or last is Directive.HOST:
            word |= START_SEEN
        elif last is Directive.STOP:
            word |= STOP_SEEN
        elif last is Directive.IDHY and condition == "normal":
            word |= IDHY_SEEN
        self._chronic = word

    # -- flow-control coupling ---------------------------------------------------------

    def _level_directive(self, directive: Directive) -> None:
        if self.fc_sender is not None:
            self.fc_sender.set_level_directive(directive)

    def _fc_changed(self, directive: Directive) -> None:
        allowed = self.fc_receiver.transmission_allowed
        if not allowed and self._stopped_since is None:
            self._stopped_since = self.sim.now
        elif allowed and self._stopped_since is not None:
            self._stop_time_ns += self.sim.now - self._stopped_since
            self._stopped_since = None
        self.on_heard_change()
        # re-gate any drain this port's transmitter is serving
        if self._drain_source is not None:
            self._drain_source.recompute()

    def cumulative_stop_ns(self, now: Optional[int] = None) -> int:
        """Total time transmission on this port has been stop-gated."""
        total = self._stop_time_ns
        if self._stopped_since is not None:
            total += (self.sim.now if now is None else now) - self._stopped_since
        return total

    def set_drain_source(self, fifo: Optional[ReceiveFifo]) -> None:
        self._drain_source = fifo

    # -- control register ---------------------------------------------------------------

    def force_directive(self, directive: Optional[Directive]) -> None:
        """Force idhy (port dead) or release to level-driven flow control."""
        self._forced_directive = directive
        if self.fc_sender is not None:
            self.fc_sender.force(directive)

    def send_panic(self) -> None:
        """Send one panic directive to force the far link unit to reset
        (section 6.1; the paper had not yet implemented this facility)."""
        if self.fc_sender is not None:
            self.fc_sender.pulse(Directive.PANIC)

    def reset(self) -> None:
        """Clear the receive FIFO, destroying any packets it holds."""
        self.fifo.queue.clear()
        self.fifo.drain_rate = 0.0
        self.fifo.recompute()

    # -- status bits (section 6.5.2) ------------------------------------------------------

    def _note_overflow(self, packet: Optional[Packet]) -> None:
        self._events |= OVERFLOW
        self.overflow_drops += 1
        self.fifo.overflowed = False  # re-arm detection

    def _note_underflow(self, packet: Packet) -> None:
        self._events |= UNDERFLOW

    def sample_status(self) -> int:
        """Read the status word and clear its accumulated event bits."""
        word = self._chronic | self._events
        self._events = 0
        fifo = self.fifo
        forwarded, seen = fifo.bytes_forwarded, fifo.packets_seen
        if forwarded > self._last_bytes_forwarded or (
            seen == self._last_packets_seen and not fifo.queue
        ):
            word |= PROGRESS_SEEN
        self._last_bytes_forwarded = forwarded
        self._last_packets_seen = seen
        return word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkUnit {self.name}>"
