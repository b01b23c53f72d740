"""Naive reference for the wire protocol: four markers and an eager kick.

``src/`` frames a packet on a link with the paper's two TAXI commands --
``begin`` (carrying the rate the bytes follow at) and ``end`` (after which
nothing arrives) -- and sends a rate marker only for a change *inside* a
packet; an end marker travels into a switch only for a packet that may not
have arrived whole (truncated, or its link changed state meanwhile), since
the switch FIFO closes a whole tail itself; its scheduling engine arms a
scan only when a queued request meets a free port.  This module holds what
it did before, kept deliberately obvious as the oracle the folded protocol
is pinned to (as ``tests/naive_registers.py`` is for the status word):

* a drain that starts sends ``begin`` and, as a separately scheduled event
  at the same instant, ``rate(r)``; the receiving FIFO appends on the first
  and latches the rate on the second (two full recompute passes);
* the pass that completes the head sends ``rate(0)`` and then ``end``, and
  a forced abort does the same;
* every end marker travels.  One the real side omits still runs as its own
  event, but as a check that it carries no news: the packet's bytes are
  all in by then (projected, without advancing the FIFO), and where its
  pass would have turned the level -- at or above the watermark -- the
  FIFO has a boundary of its own at that instant.  The ``rate(0)`` ahead
  of it is only counted.  Running them through the FIFO would split its
  float sums at an instant the real side does not stop at (a last-ulp
  ``max_level`` difference, not a behaviour one);
* ``SchedulingEngine._kick`` scans whenever the queue is non-empty: at
  once while the engine is free, as the real one does, and armed for the
  end of its decision time while it is busy.

:func:`install` patches all of that over the real classes and returns the
count of events the naive side dispatches that the real code folds away,
so a differential test can demand ``naive.events_dispatched -
real.events_dispatched == folded.markers + folded.empty_scans`` exactly.
Its ``_recompute`` is built on the five-method pass of
``tests/naive_fifo.py``, which it installs first.
Nothing under ``src/`` may import this module.
"""

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import _EPS, FifoPacket, ReceiveFifo, TransmitQueue
from repro.net.link import Link, Transmitter
from repro.net.scheduler import SchedulingEngine
from repro.sim.engine import cancel
from tests import naive_fifo


class Folded:
    """Events only the naive side dispatches, counted as they run."""

    def __init__(self):
        #: rate markers delivered beside a begin or an end marker, and end
        #: markers into a switch for a packet that arrived whole
        self.markers = 0
        #: scans that ran although no kick since the last scan had seen a
        #: queued request meet a free port
        self.empty_scans = 0


def install(monkeypatch):
    """Patch the parent's protocol over the real classes (undone by the
    ``monkeypatch`` fixture); returns the :class:`Folded` counters."""
    folded = Folded()

    def send_folded_rate(target, rate, closing=False):
        """A rate marker of its own, as ``Transmitter.notify_rate`` sends
        one, counted when the far end runs it.  The ``rate(0)`` that goes
        ahead of an end marker the real side omits (``closing``) is, like
        that end marker, only counted."""
        if not isinstance(target, Transmitter):
            target.notify_rate(rate)
            return
        link = target.endpoint.link
        route = link._route(target.endpoint) if link is not None else None
        if route is None:
            return
        receiver, delay = route
        quiet = closing and not receiver.needs_end_marker and link.changes == target.begun_changes

        def deliver():
            folded.markers += 1
            if not quiet:
                receiver.rx_set_rate(rate)

        link.sim.after(delay, deliver)

    def begin_packet(self, packet, rate):
        # the begin marker only opens the entry; its rate follows as the
        # next event and goes through set_in_rate
        self._advance()
        self.overflowed = False
        self.queue.append(FifoPacket(packet, self.cut_through_bytes))
        self.packets_seen += 1
        self._recompute()

    def _recompute(self):
        queue = self.queue
        head = queue[0] if queue else None

        if head is not None and not head.requested and head.bytes_in + _EPS >= 2:
            head.requested = True
            if self.on_head_ready is not None:
                self.on_head_ready(head.packet)

        new_rate = self._desired_drain_rate()
        if head is not None and head.targets is not None:
            starting = new_rate > 0 and not head.drain_started
            if starting:
                head.drain_started = True
                if head.arriving:
                    self.cut_through_packets += 1
                else:
                    self.buffered_packets += 1
                for target in head.targets:
                    target.notify_begin(head.packet, head.broadcast, new_rate)
            if head.drain_started and abs(new_rate - self.drain_rate) > _EPS:
                completing = head.bytes_out + _EPS >= head.size
                for target in head.targets:
                    if starting or completing:
                        send_folded_rate(target, new_rate, completing)
                    else:
                        target.notify_rate(new_rate)
        self.drain_rate = new_rate if (head is not None and head.drain_started) else 0.0

        if head is not None and head.bytes_out + _EPS >= head.size:
            self._complete_head()
            return

        level = self._level()
        net = self._effective_in_rate() - self.drain_rate
        if level > self.stop_threshold + _EPS:
            self._set_level_stop(True)
        elif level < self.stop_threshold - _EPS or (
            abs(level - self.stop_threshold) <= _EPS and net <= 0
        ):
            self._set_level_stop(False)

        self._program_boundary(level, net)

    def abort(self):
        packet = self.current
        if packet is not None:
            packet.corrupted = True
            send_folded_rate(self, 0.0)
            self.notify_end(packet, True)

    def send_end(self, sender, packet, news):
        """An end marker to every endpoint; one the real side omits (a
        whole packet into a switch) is counted when it runs."""
        route = self._route(sender)
        if route is None:
            return
        receiver, delay = route
        if news or receiver.needs_end_marker:
            self.sim.after(delay, receiver.rx_end_packet, packet)
            return

        def deliver():
            folded.markers += 1
            fifo, now = receiver.fifo, receiver.fifo.sim.now
            entry = fifo._arriving_entry()
            if entry is not None and entry.packet is packet:
                got = entry.bytes_in + fifo.in_rate * (now - fifo._last_update) / BYTE_TIME_NS
                assert got + _EPS >= entry.size, "an omitted end marker carried news"
                # at or above the watermark this marker's pass would have
                # turned the level; the FIFO must stop here by itself
                if fifo._level_stop or fifo.peek_level() >= fifo.stop_threshold - _EPS:
                    assert fifo._boundary is not None and fifo._boundary_at == now

        self.sim.after(delay, deliver)

    def _kick(self):
        matched = any(request.entry.mask & self.free for request in self.queue)
        if self._scan_event is not None:
            if not (matched and self._busy_until <= self.sim.now):
                # the real engine would have armed here at the latest
                self._naive_matched = self._naive_matched or matched
                return
            # the real engine scans now: the one armed for this instant
            # while it was busy goes
            cancel(self._scan_event)
            self._scan_event = None
        if not self.queue:
            return
        if self._busy_until <= self.sim.now:
            real_scan(self)
            return
        self._naive_matched = matched
        self._scan_event = self.sim.at(self._busy_until, self._scan)

    real_scan = SchedulingEngine._scan

    def _scan(self):
        if not self._naive_matched:
            folded.empty_scans += 1
        real_scan(self)

    naive_fifo.install(monkeypatch)
    monkeypatch.setattr(ReceiveFifo, "begin_packet", begin_packet)
    monkeypatch.setattr(ReceiveFifo, "_recompute", _recompute)
    # whole packets wait as they did then: in a 1 GiB receive FIFO, drained
    # by the pass above
    monkeypatch.setattr(TransmitQueue, "__init__", naive_fifo.BufferedQueue.__init__)
    monkeypatch.delattr(TransmitQueue, "_advance")
    monkeypatch.delattr(TransmitQueue, "_recompute")
    monkeypatch.setattr(Transmitter, "abort", abort)
    monkeypatch.setattr(Link, "send_end", send_end)
    monkeypatch.setattr(SchedulingEngine, "_kick", _kick)
    monkeypatch.setattr(SchedulingEngine, "_scan", _scan)
    return folded
