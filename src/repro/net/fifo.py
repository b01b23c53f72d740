"""Receive-FIFO fluid model (sections 5.1, 6.2).

Each switch port buffers arriving bytes in a FIFO (4096 bytes in the real
hardware).  The FIFO's occupancy is piecewise-linear in time because every
link runs at the same 80 ns/byte rate and rates only change at discrete
events (flow-control transitions, packet boundaries, crossbar grants).  We
therefore track byte counts analytically and schedule a single *boundary*
event per FIFO at the earliest time anything interesting happens:

* the head packet's first two address bytes arrive (routing request, §6.3),
* cut-through becomes possible (25 bytes arrived, §3.5),
* the occupancy crosses the stop/start watermark (flow control, §6.2),
* the head packet finishes draining (output ports free, §5.1),
* the drain catches up with the arrival (pass-through or stall),
* the arriving tail is whole at or above the watermark (the level turns).

The advance that finds a tail's last byte in closes it: a switch hears an
end marker only when it carries news (DESIGN.md, "Two markers on the wire").

External state changes (grants, upstream rate changes, downstream flow
control) call :meth:`ReceiveFifo.recompute`, which advances the linear
state to "now" and makes one pass over it: routing request, drain rate and
markers, head completion, the level's directive, the next boundary event.
A grant made inside the request only names the drain, for that pass to read.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence

from repro.constants import BYTE_TIME_NS, CUT_THROUGH_BYTES, DEFAULT_FIFO_BYTES
from repro.net.flowcontrol import Directive
from repro.net.packet import Packet
from repro.sim.engine import Event, Simulator, cancel

_EPS = 1e-6
_NEVER = float("inf")


class DrainTarget:
    """Where a draining FIFO's bytes go: one or more output transmitters,
    or the discard sink.  Implementations forward begin/rate/end markers to
    the next hop (or nowhere)."""

    def drain_allowed(self, broadcast: bool) -> bool:
        raise NotImplementedError

    def notify_begin(self, packet: Packet, broadcast: bool, rate: float) -> None:
        """The drain starts, at ``rate``; a sink has no next hop to tell."""

    def notify_rate(self, rate: float) -> None:
        """The drain rate changed between the packet's begin and its end."""

    def notify_end(self, packet: Packet) -> None:
        raise NotImplementedError


class DiscardSink(DrainTarget):
    """Sinks packet bytes at link rate; used for discard table entries."""

    def drain_allowed(self, broadcast: bool) -> bool:
        return True

    def notify_end(self, packet: Packet) -> None:
        """The packet is gone; nothing downstream to tell."""


class FifoPacket:
    """Book-keeping for one packet resident in (or flowing through) a FIFO."""

    __slots__ = ("packet", "size", "cut_through", "bytes_in", "bytes_out", "arriving",
                 "requested", "targets", "broadcast", "drain_started")

    def __init__(self, packet: Packet, cut_through_bytes: int) -> None:
        self.packet = packet
        #: wire size and the bytes a drain waits for, min(cut_through_bytes,
        #: size), latched once -- the dynamics read them constantly
        self.size = size = packet.wire_bytes
        self.cut_through: int = size if size < cut_through_bytes else cut_through_bytes
        self.bytes_in: float = 0.0
        self.bytes_out: float = 0.0
        self.arriving = True
        #: routing request issued to the switch for this packet
        self.requested = False
        #: drain connection (set by the crossbar on grant)
        self.targets: Optional[Sequence[DrainTarget]] = None
        self.broadcast = False
        self.drain_started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FifoPacket({self.packet!r} in={self.bytes_in:.0f} "
                f"out={self.bytes_out:.0f} arriving={self.arriving})")


class ReceiveFifo:
    """The receive FIFO of one link unit, with start/stop flow control."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int = DEFAULT_FIFO_BYTES,
        stop_fraction: float = 0.5,
        cut_through_bytes: int = CUT_THROUGH_BYTES,
        on_head_ready: Optional[Callable[[Packet], None]] = None,
        on_level_directive: Optional[Callable[[Directive], None]] = None,
        on_packet_drained: Optional[Callable[[Packet], None]] = None,
        on_overflow: Optional[Callable[[Packet], None]] = None,
        on_underflow: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.stop_threshold = capacity * (1.0 - stop_fraction)
        self.cut_through_bytes = cut_through_bytes
        self.on_head_ready = on_head_ready
        self.on_level_directive = on_level_directive
        self.on_packet_drained = on_packet_drained
        self.on_overflow = on_overflow
        self.on_underflow = on_underflow

        self.queue: Deque[FifoPacket] = deque()
        #: arrival rate in bytes per slot (0.0 or 1.0); applies to the
        #: newest entry while it is still arriving
        self.in_rate: float = 0.0
        #: current drain rate of the head packet
        self.drain_rate: float = 0.0
        self._last_update: int = sim.now
        self._boundary: Optional[Event] = None
        #: the instant the armed boundary event runs at
        self._boundary_at: int = 0
        #: directive currently implied by the level (start below threshold)
        self._level_stop = False
        self._requesting = False  # inside on_head_ready: a grant only names the drain

        # statistics / status-bit feeds
        self.bytes_forwarded: float = 0.0
        self.packets_seen: int = 0
        self.max_level: float = 0.0
        self.overflowed = False
        #: drains that began while the packet was still arriving (§3.5)
        self.cut_through_packets: int = 0
        #: drains that began only after the whole packet was buffered
        self.buffered_packets: int = 0

    # -- public queries ---------------------------------------------------------

    @property
    def level(self) -> float:
        """Current occupancy in bytes (advance first for exactness)."""
        self._advance()
        return self._level()

    def peek_level(self) -> float:
        """Occupancy now, projected from the linear state *without*
        advancing it.  The time-series sampler reads this: advancing in
        :meth:`_advance` splits the float accumulation into different
        partial sums, so a sampled run would diverge (in the last ulp)
        from an unsampled one.  Projection keeps sampling observational.
        """
        queue = self.queue
        level = 0
        for entry in queue:
            level += entry.bytes_in - entry.bytes_out
        dt = self.sim.now - self._last_update
        if dt <= 0:
            return level
        slots = dt / BYTE_TIME_NS
        tail = queue[-1] if queue and queue[-1].arriving else None
        if tail is not None and self.in_rate > 0:
            room = float(tail.size) - tail.bytes_in
            got = self.in_rate * slots
            level += got if got < room else room  # min(room, got)
        if queue and self.drain_rate > 0:
            head = queue[0]
            inflow = self.in_rate * slots if head is tail else 0.0
            moved = self.drain_rate * slots
            held = head.bytes_in - head.bytes_out + inflow
            level -= held if held < moved else moved  # min(moved, held)
        return level if level > 0.0 else 0.0  # max(0.0, level)

    def _level(self) -> float:
        # same accumulation order as sum() over the queue, without the
        # generator machinery (the queue is almost always 0 or 1 deep)
        total = 0
        for entry in self.queue:
            total += entry.bytes_in - entry.bytes_out
        return total

    @property
    def head(self) -> Optional[FifoPacket]:
        return self.queue[0] if self.queue else None

    @property
    def stopped(self) -> bool:
        """Whether the level currently demands a ``stop`` directive."""
        return self._level_stop

    # -- upstream (arrival) interface ---------------------------------------------

    def begin_packet(self, packet: Packet, rate: float) -> None:
        """A packet's first byte is arriving now, the rest behind it at
        ``rate`` (the begin command of section 6.1)."""
        self._advance()
        # a new packet is a new victim for overflow detection
        self.overflowed = False
        self.queue.append(FifoPacket(packet, self.cut_through_bytes))
        self.packets_seen += 1
        self.in_rate = rate
        self._recompute()

    def set_in_rate(self, rate: float) -> None:
        """The arrival rate changed inside a packet (upstream stalled or
        resumed: sync fill between begin and end)."""
        self._advance()
        self.in_rate = rate
        self._recompute()

    def end_packet(self, packet: Packet) -> None:
        """The packet's end marker: nothing more of it arrives (it was cut
        short, or may have lost a marker), so the arrival rate is 0 from
        here until the next begin.  It closes whatever entry is arriving:
        when a cut lost this packet's begin (and the earlier packet's end),
        that entry is the earlier packet, and nothing more of it comes."""
        self._advance()
        entry = self._arriving_entry()
        # the entry may already have been fully drained and popped
        # (cut-through finished exactly as the tail arrived)
        if entry is not None:
            entry.bytes_in = float(entry.size)
            entry.arriving = False
        self.in_rate = 0.0
        self._recompute()

    def _arriving_entry(self) -> Optional[FifoPacket]:
        if self.queue and self.queue[-1].arriving:
            return self.queue[-1]
        return None

    # -- drain (crossbar) interface ---------------------------------------------

    def connect_drain(self, targets: Sequence[DrainTarget], broadcast: bool) -> None:
        """The router granted output ports to the head packet."""
        if not self.queue:
            raise RuntimeError(f"{self.name}: grant with empty FIFO")
        entry = self.queue[0]
        # every caller builds a fresh list: keep it, no copy
        entry.targets = targets
        entry.broadcast = broadcast
        if not self._requesting:  # else the request's own pass reads it next
            self._advance()
            self._recompute()

    def recompute(self) -> None:
        """Re-evaluate rates after an external state change."""
        self._advance()
        self._recompute()

    def clear(self) -> None:
        """Destroy every packet (a reset), counting what drained until now."""
        self._advance()
        self.queue.clear()
        self.drain_rate = 0.0
        self._recompute()

    # -- internal dynamics ---------------------------------------------------------

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            return
        self._last_update = now
        slots = dt / BYTE_TIME_NS
        queue = self.queue
        level = 0
        whole = False
        if queue:
            tail = queue[-1]
            if tail.arriving and self.in_rate > 0:
                got = tail.bytes_in + self.in_rate * slots  # min(float(size), got)
                tail.bytes_in = got if got < tail.size else float(tail.size)
                whole = got + _EPS >= tail.size
            drain_rate = self.drain_rate
            if drain_rate > 0:
                head = queue[0]
                moved = drain_rate * slots  # min(moved, held)
                held = head.bytes_in - head.bytes_out
                if held < moved:
                    moved = held
                head.bytes_out += moved
                self.bytes_forwarded += moved
            for entry in queue:
                level += entry.bytes_in - entry.bytes_out
        if level > self.max_level:
            self.max_level = level
        if level > self.capacity + _EPS:
            # once per victim: a later advance above capacity is the same loss
            if not self.overflowed:
                self.overflowed = True
                victim = self._arriving_entry()
                if victim is not None:
                    victim.packet.corrupted = True
                ib = self.sim.inband
                if ib is not None:
                    ib.record_queue_drop(victim.packet if victim else None, self.name)
                if self.on_overflow is not None:
                    self.on_overflow(victim.packet if victim else None)
        elif self.overflowed:
            # back within capacity: the next excess loses another packet
            self.overflowed = False
        if whole:
            # the last byte is in: close the tail as an end marker would,
            # after the overflow check, which still names it the victim
            tail.bytes_in, tail.arriving, self.in_rate = float(tail.size), False, 0.0

    def _recompute(self) -> None:
        # One pass per state change, ~4 per FIFO a packet crosses.  Each
        # float expression is the five-method pass's (tests/naive_fifo.py),
        # in its order, and each min/max/abs of it is a comparison that
        # returns the operand the builtin did (DESIGN.md): float
        # trajectories, hence packet timing, are unchanged.
        queue = self.queue
        if not queue:
            self.drain_rate = 0.0
            if self._level_stop:
                self._set_level_stop(False)
            if self._boundary is not None:
                cancel(self._boundary)
                self._boundary = None
            return
        head = queue[0]

        # head routing request: first two address bytes present
        if not head.requested and head.bytes_in + _EPS >= 2:
            head.requested = True
            if self.on_head_ready is not None:
                # a grant inside (an inline scan, a discard) only names the drain
                self._requesting = True
                self.on_head_ready(head.packet)
                self._requesting = False
        tail = queue[-1]
        arriving = tail if tail.arriving else None

        # drain rate, and the markers it implies downstream: begin carries
        # its rate and end implies rate 0, so a rate marker goes out only
        # for a change inside the packet
        new_rate = 0.0
        targets = head.targets
        if targets is not None:
            if head.drain_started or head.bytes_in + _EPS >= head.cut_through:
                broadcast = head.broadcast
                for target in targets:
                    if not target.drain_allowed(broadcast):
                        break
                else:
                    if head.bytes_in - head.bytes_out > _EPS:
                        new_rate = 1.0
                    elif head.arriving or (tail is head and self.in_rate > 0):
                        # pass-through: forward at the arrival rate
                        if head is arriving:
                            new_rate = self.in_rate
                        if new_rate <= 0 and head.drain_started \
                                and head.bytes_out + _EPS < head.size \
                                and self.on_underflow is not None:
                            self.on_underflow(head.packet)
            if new_rate > 0 and not head.drain_started:
                head.drain_started = True
                if head.arriving:
                    self.cut_through_packets += 1
                else:
                    self.buffered_packets += 1
                for target in targets:
                    target.notify_begin(head.packet, head.broadcast, new_rate)
            elif head.drain_started and not -_EPS <= new_rate - self.drain_rate <= _EPS \
                    and head.bytes_out + _EPS < head.size:
                for target in targets:
                    target.notify_rate(new_rate)
        self.drain_rate = drain_rate = new_rate if head.drain_started else 0.0

        if head.bytes_out + _EPS >= head.size:
            self._complete_head()
            return  # _complete_head re-enters this pass for the next head

        # flow-control directive from the level trajectory
        level: float = 0
        for entry in queue:
            level += entry.bytes_in - entry.bytes_out
        in_rate = self.in_rate if arriving is not None else 0.0
        net = in_rate - drain_rate
        stop_threshold = self.stop_threshold
        if level > stop_threshold + _EPS:
            if not self._level_stop:
                self._set_level_stop(True)
        elif self._level_stop and (level < stop_threshold - _EPS or (
                -_EPS <= level - stop_threshold <= _EPS and net <= 0)):
            self._set_level_stop(False)

        # the next boundary: the earliest future instant that changes the
        # dynamics, in slots, among the candidates more than _EPS away
        soonest = _NEVER
        if in_rate > 0 and head is arriving:
            if not head.requested:
                c = (2.0 - head.bytes_in) / in_rate
                if _EPS < c < soonest:
                    soonest = c
            if targets is not None and not head.drain_started:
                c = (head.cut_through - head.bytes_in) / in_rate
                if _EPS < c < soonest:
                    soonest = c
        if drain_rate > 0:
            # completion of the head packet
            c = (head.size - head.bytes_out) / drain_rate
            if _EPS < c < soonest:
                soonest = c
            # drain catches up with arrival (stall / pass-through switch); a
            # head no longer arriving holds all its bytes, so only completes
            if head is arriving and drain_rate > in_rate:
                c = (head.bytes_in - head.bytes_out) / (drain_rate - in_rate)
                if _EPS < c < soonest:
                    soonest = c
        # the tail is whole here and the level stops rising: a boundary
        # only if a fall through the watermark may start there
        whole = _NEVER
        if in_rate > 0:
            whole = (tail.size - tail.bytes_in) / in_rate
            if (self._level_stop or level + net * whole >= stop_threshold - _EPS) \
                    and _EPS < whole < soonest:
                soonest = whole
        # aim half a byte past the watermark so the crossing is strict
        # (landing exactly on it would reschedule a zero-length step); a
        # rise is a candidate only before the tail is whole
        if net > _EPS and level <= stop_threshold + _EPS:
            c = (stop_threshold - level) / net + 0.5
            if _EPS < c < soonest and c <= whole:
                soonest = c
        elif net < -_EPS and level >= stop_threshold - _EPS:
            c = (level - stop_threshold) / (-net) + 0.5
            if _EPS < c < soonest:
                soonest = c
        # capacity crossing: detect overflow when it happens, not later
        if net > _EPS and level <= self.capacity + _EPS:
            c = (self.capacity - level) / net + 0.5
            if _EPS < c < soonest and c <= whole:
                soonest = c

        boundary = self._boundary
        if soonest == _NEVER:
            if boundary is not None:
                cancel(boundary)
                self._boundary = None
            return
        delay_ns = round(soonest * BYTE_TIME_NS) or 1  # max(1, ...) of an int >= 0
        at = self.sim.now + delay_ns
        if boundary is not None:
            # reprogramming to the same instant: keep the armed event.
            # The handler (advance + recompute) is idempotent at an
            # instant, so its position among same-time events is free.
            if self._boundary_at == at:
                return
            cancel(boundary)
        self._boundary = self.sim.after(delay_ns, self._on_boundary)
        self._boundary_at = at

    def _set_level_stop(self, stop: bool) -> None:
        self._level_stop = stop
        if self.on_level_directive is not None:
            self.on_level_directive(Directive.STOP if stop else Directive.START)

    def _complete_head(self) -> None:
        head = self.queue.popleft()
        self.drain_rate = 0.0
        if head.targets is not None:
            for target in head.targets:
                target.notify_end(head.packet)
        if self.on_packet_drained is not None:
            self.on_packet_drained(head.packet)
        # promote the next packet (its routing request may now be issued);
        # an empty queue needs the pass only to release the level or disarm
        if self.queue or self._level_stop or self._boundary is not None:
            self._recompute()

    def _on_boundary(self) -> None:
        self._boundary = None
        self._advance()
        self._recompute()


class TransmitQueue(ReceiveFifo):
    """Whole packets leaving a control processor or a host: the receive
    FIFO's entry points, projection and boundary handler, and a pass that
    is only its drain, at rates 0 and 1, in its float expressions
    (``tests/naive_fifo.py`` keeps the path it replaced).  Statistics stay 0."""

    def enqueue(self, packet: Packet) -> None:
        self._advance()
        entry = FifoPacket(packet, 0)
        entry.bytes_in, entry.arriving = float(entry.size), False
        self.queue.append(entry)
        self._recompute()

    def _advance(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            self._last_update = self.sim.now
            if self.drain_rate > 0:
                head = self.queue[0]
                moved = self.drain_rate * (dt / BYTE_TIME_NS)
                held = head.bytes_in - head.bytes_out
                head.bytes_out += held if held < moved else moved

    def _recompute(self) -> None:
        queue = self.queue
        rate = left = 0.0
        if queue:
            head = queue[0]
            if not head.requested:
                head.requested = True
                if self.on_head_ready is not None:
                    # a grant from inside only names the drain: read next
                    self._requesting = True
                    self.on_head_ready(head.packet)
                    self._requesting = False
            if head.bytes_out + _EPS >= head.size:
                self._complete_head()  # a drain ends with no rate marker
                return
            targets = head.targets
            if targets is not None:
                for target in targets:
                    if not target.drain_allowed(head.broadcast):
                        break
                else:
                    rate = 1.0 if head.bytes_in - head.bytes_out > _EPS else 0.0
                if rate > 0 and not head.drain_started:
                    head.drain_started = True
                    for target in targets:
                        target.notify_begin(head.packet, head.broadcast, rate)
                elif head.drain_started and rate != self.drain_rate:
                    for target in targets:
                        target.notify_rate(rate)
            left = head.size - head.bytes_out
        self.drain_rate = rate
        boundary = self._boundary
        if rate > 0 and left > _EPS:
            delay_ns = round(left * BYTE_TIME_NS) or 1
            if boundary is not None:
                if self._boundary_at == self.sim.now + delay_ns:
                    return
                cancel(boundary)
            self._boundary = self.sim.after(delay_ns, self._on_boundary)
            self._boundary_at = self.sim.now + delay_ns
        elif boundary is not None:
            cancel(boundary)
            self._boundary = None
