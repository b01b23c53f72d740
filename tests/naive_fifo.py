"""Naive reference for the receive FIFO's recompute: five methods.

``src/`` makes one straight-line pass per FIFO state change
(``ReceiveFifo._recompute``): it reads the head and the arriving tail once,
returns early on an empty queue, walks the queue for the level inline,
writes each ``min``/``max``/``abs`` as a comparison and calls
``_set_level_stop`` only on a change.  This module holds the pass it
replaced, verbatim apart from the closing and tail-whole rules below, as the
oracle it is pinned to (as ``tests/naive_wire.py`` is for the wire
protocol):

* ``_recompute`` issues the routing request, asks ``_desired_drain_rate``
  for the drain rate, emits the markers, completes the head, walks the
  level with ``_level()``, asks ``_effective_in_rate`` for the arrival
  rate, sets the directive through ``_set_level_stop`` in every pass, and
  hands level and net rate to ``_program_boundary``, which arms the
  instant the arriving tail is whole only at or above the watermark (or
  with the stop latched) and no rise past that instant;
* ``_set_level_stop`` returns early when nothing changes;
* ``_advance`` moves the bytes with ``min`` and sums the level with
  ``_level()``, where ``src/`` compares and walks the queue inline; after
  its overflow check it closes a tail whose bytes are all in, as
  ``end_packet`` would.

:func:`install` patches the five methods and ``_advance`` over
:class:`ReceiveFifo`; :func:`peek_level` keeps the projection that called
``_level()``, ``min`` and ``max``, to be compared with, not installed.
``tests/naive_wire.py`` builds its own ``_recompute`` on these helpers.

:func:`enqueue_buffered` and :class:`BufferedQueue` keep the path a whole
packet took before ``TransmitQueue``: a receive FIFO of 1 GiB, fed packets
that are already whole, through the receive FIFO's full pass
(``tests/net/test_transmit_queue_oracle.py`` holds the queue to it).
Nothing under ``src/`` may import this module.
"""

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import _EPS, _NEVER, FifoPacket, ReceiveFifo
from repro.net.flowcontrol import Directive
from repro.sim.engine import cancel


def _advance(self):
    now = self.sim.now
    dt = now - self._last_update
    if dt <= 0:
        return
    slots = dt / BYTE_TIME_NS
    queue = self.queue
    entry = queue[-1] if queue and queue[-1].arriving else None
    if entry is not None and self.in_rate > 0:
        entry.bytes_in = min(float(entry.size), entry.bytes_in + self.in_rate * slots)
    whole = entry is not None and self.in_rate > 0 and entry.bytes_in + _EPS >= entry.size
    head = queue[0] if queue else None
    if head is not None and self.drain_rate > 0:
        moved = min(self.drain_rate * slots, head.bytes_in - head.bytes_out)
        head.bytes_out += moved
        self.bytes_forwarded += moved
    self._last_update = now
    level = self._level()
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
        # every byte is in: what end_packet would do, the victim named first
        entry.bytes_in = float(entry.size)
        entry.arriving = False
        self.in_rate = 0.0


def _effective_in_rate(self):
    """The arrival rate the pass plans with: none without an arriving tail."""
    queue = self.queue
    if not queue or not queue[-1].arriving:
        return 0.0
    return self.in_rate


def _desired_drain_rate(self):
    queue = self.queue
    head = queue[0] if queue else None
    if head is None or head.targets is None:
        return 0.0
    if not head.drain_started:
        threshold = min(self.cut_through_bytes, head.size)
        if head.bytes_in + _EPS < threshold:
            return 0.0
    broadcast = head.broadcast
    for t in head.targets:
        if not t.drain_allowed(broadcast):
            return 0.0
    if head.bytes_in - head.bytes_out > _EPS:
        return 1.0
    if head.arriving or (queue and queue[-1] is head and self.in_rate > 0):
        # pass-through: forward at the arrival rate
        rate = self.in_rate if head.arriving and queue[-1] is head else 0.0
        if rate <= 0 and head.drain_started and head.bytes_out + _EPS < head.size:
            if self.on_underflow is not None:
                self.on_underflow(head.packet)
        return rate
    return 0.0


def _recompute(self):
    queue = self.queue
    head = queue[0] if queue else None

    # head routing request: first two address bytes present
    if head is not None and not head.requested and head.bytes_in + _EPS >= 2:
        head.requested = True
        if self.on_head_ready is not None:
            self.on_head_ready(head.packet)

    # (re)establish drain rate and emit markers downstream: begin
    # carries its rate and end implies rate 0, so a rate marker goes
    # out only for a change inside the packet
    new_rate = self._desired_drain_rate()
    if head is not None and head.targets is not None:
        if new_rate > 0 and not head.drain_started:
            head.drain_started = True
            if head.arriving:
                self.cut_through_packets += 1
            else:
                self.buffered_packets += 1
            for target in head.targets:
                target.notify_begin(head.packet, head.broadcast, new_rate)
        elif head.drain_started and abs(new_rate - self.drain_rate) > _EPS \
                and head.bytes_out + _EPS < head.size:
            for target in head.targets:
                target.notify_rate(new_rate)
    self.drain_rate = new_rate if (head is not None and head.drain_started) else 0.0

    # head completion
    if head is not None and head.bytes_out + _EPS >= head.size:
        self._complete_head()
        return  # _complete_head recurses into _recompute

    # flow-control directive from level trajectory
    level = self._level()
    net = self._effective_in_rate() - self.drain_rate
    if level > self.stop_threshold + _EPS:
        self._set_level_stop(True)
    elif level < self.stop_threshold - _EPS or (abs(level - self.stop_threshold) <= _EPS and net <= 0):
        self._set_level_stop(False)

    self._program_boundary(level, net)


def _set_level_stop(self, stop):
    if stop == self._level_stop:
        return
    self._level_stop = stop
    if self.on_level_directive is not None:
        self.on_level_directive(Directive.STOP if stop else Directive.START)


def _program_boundary(self, level, net):
    """Schedule the earliest future event that changes the dynamics."""
    #: earliest candidate, in slots, among those more than _EPS away
    soonest = _NEVER
    queue = self.queue
    head = queue[0] if queue else None
    arriving = queue[-1] if queue and queue[-1].arriving else None
    in_rate = self._effective_in_rate()

    if head is not None:
        if not head.requested and in_rate > 0 and head is arriving:
            c = (2.0 - head.bytes_in) / in_rate
            if _EPS < c < soonest:
                soonest = c
        if head.targets is not None and not head.drain_started and in_rate > 0 \
                and head is arriving:
            threshold = min(self.cut_through_bytes, head.size)
            c = (threshold - head.bytes_in) / in_rate
            if _EPS < c < soonest:
                soonest = c
        drain_rate = self.drain_rate
        if drain_rate > 0:
            # completion of the head packet
            c = (head.size - head.bytes_out) / drain_rate
            if _EPS < c < soonest:
                soonest = c
            # drain catches up with arrival (stall / pass-through switch)
            available = head.bytes_in - head.bytes_out
            if head is arriving and drain_rate > in_rate:
                c = available / (drain_rate - in_rate)
                if _EPS < c < soonest:
                    soonest = c
            elif not head.arriving and available < head.size - head.bytes_out:
                c = available / drain_rate
                if _EPS < c < soonest:
                    soonest = c

    # the instant the arriving tail is whole: the level stops rising there
    whole = (arriving.size - arriving.bytes_in) / in_rate if in_rate > 0 else _NEVER
    # ... and, if it is at or above the watermark then, may start to fall
    if whole < _NEVER and (self._level_stop
                           or level + net * whole >= self.stop_threshold - _EPS):
        if _EPS < whole < soonest:
            soonest = whole

    # aim half a byte past the watermark so the crossing is strict
    # (landing exactly on it would reschedule a zero-length step); no rise
    # lasts past the whole tail
    if net > _EPS and level <= self.stop_threshold + _EPS:
        c = (self.stop_threshold - level) / net + 0.5
        if _EPS < c < soonest and c <= whole:
            soonest = c
    elif net < -_EPS and level >= self.stop_threshold - _EPS:
        c = (level - self.stop_threshold) / (-net) + 0.5
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
    delay_ns = max(1, int(round(soonest * BYTE_TIME_NS)))
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


def peek_level(self):
    """``ReceiveFifo.peek_level`` as it was, by ``_level()``, ``min`` and
    ``max`` (not installed: ``check_peek`` holds the real one to it)."""
    level = self._level()
    dt = self.sim.now - self._last_update
    if dt <= 0:
        return level
    slots = dt / BYTE_TIME_NS
    entry = self._arriving_entry()
    if entry is not None and self.in_rate > 0:
        level += min(float(entry.size) - entry.bytes_in, self.in_rate * slots)
    head = self.head
    if head is not None and self.drain_rate > 0:
        inflow = self.in_rate * slots if head is entry else 0.0
        level -= min(self.drain_rate * slots,
                     head.bytes_in - head.bytes_out + inflow)
    return max(0.0, level)


def install(monkeypatch):
    """Patch the five-method pass and its advance over :class:`ReceiveFifo`
    (undone by the ``monkeypatch`` fixture)."""
    monkeypatch.setattr(ReceiveFifo, "_advance", _advance, raising=True)
    monkeypatch.setattr(ReceiveFifo, "_recompute", _recompute, raising=True)
    monkeypatch.setattr(ReceiveFifo, "_set_level_stop", _set_level_stop, raising=True)
    for name, method in (
        ("_desired_drain_rate", _desired_drain_rate),
        ("_effective_in_rate", _effective_in_rate),
        ("_program_boundary", _program_boundary),
    ):
        monkeypatch.setattr(ReceiveFifo, name, method, raising=False)


def enqueue_buffered(self, packet):
    """``ReceiveFifo.enqueue_buffered`` as it was: queue a packet that is
    already whole in the buffer (nothing arrives)."""
    self._advance()
    entry = FifoPacket(packet, self.cut_through_bytes)
    entry.bytes_in, entry.arriving = float(entry.size), False
    self.queue.append(entry)
    self.packets_seen += 1
    self._recompute()


class BufferedQueue(ReceiveFifo):
    """A control processor's injection FIFO or a host's transmit staging as
    it was: a 1 GiB receive FIFO fed whole packets."""

    def __init__(self, sim, name, **callbacks):
        ReceiveFifo.__init__(self, sim, name, capacity=1 << 30, **callbacks)

    enqueue = enqueue_buffered
