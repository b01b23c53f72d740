"""One pass per FIFO state change behaves as the five methods it replaced.

``ReceiveFifo._recompute`` makes one straight-line pass: it reads the head
and the arriving tail once, returns early on an empty queue, walks the
level inline and calls ``_set_level_stop`` only on a change.  Two guards,
against the five-method pass kept in ``tests/naive_fifo.py`` (CI also runs
this file in the ``determinism`` job under ``PYTHONHASHSEED=0`` and
``=random``):

* a **Hypothesis differential** over one FIFO driven by a script of
  arrivals (whole, or begun and ended by hand, an end marker possibly
  missing, so the FIFO closes a whole tail by itself),
  stalls and resumes inside a packet, buffered injections, resets,
  grants after a delay to one or two gated sinks, gates toggling, a
  discard that grants from inside the head-ready callback (re-entering the
  pass) and heads never granted (overflow), for
  capacities down to 1 byte, stop fractions 0, 0.5 and 1 and cut-through
  at 1, 25 and 3000 bytes.  The two must log the same (time, callback,
  packet id) sequence and, after every dispatched event, arm the boundary
  for the same instant and hold bit-identical byte counts;
* **``peek_level()`` stays observational** at random instants of the same
  scripts: it changes no field, agrees with ``level`` to 1e-6 and to the
  bit with the ``min``/``max`` projection it replaced (which a direct
  differential also holds over arbitrary queues, rates and elapsed
  times), and a run that peeks is the run that does not.
"""

import copy
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import FifoPacket, ReceiveFifo
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator, cancel
from tests import naive_fifo
from tests.net.test_fifo_properties import GatedSink


class LoggingSink(GatedSink):
    """A drain target the script can gate, logging every marker."""

    def __init__(self, rig, name):
        super().__init__()
        self.rig, self.name, self.current = rig, name, None

    def notify_begin(self, packet, broadcast, rate):
        self.current = packet
        self.rig.note(f"{self.name}.begin", packet, rate, broadcast)

    def notify_rate(self, rate):
        self.rig.note(f"{self.name}.rate", self.current, rate)

    def notify_end(self, packet):
        self.current = None
        self.rig.note(f"{self.name}.end", packet)


class Rig:
    """One FIFO, its sinks and grant policy, and everything observable."""

    def __init__(self, capacity, stop_fraction, cut_through, grants):
        self.sim = sim = Simulator()
        self.log = []
        self.states = []
        self.grants, self.requests = grants, 0
        #: the delayed grant in flight, if any (one request at a time)
        self.pending = None
        self.packets = []
        self.sinks = [LoggingSink(self, "a"), LoggingSink(self, "b")]
        self.discard = LoggingSink(self, "discard")
        self.fifo = ReceiveFifo(
            sim, "oracle.fifo", capacity=capacity, stop_fraction=stop_fraction,
            cut_through_bytes=cut_through,
            # bound methods, not lambdas: a deep copy of the FIFO must call
            # its own copy of the rig (check_peek)
            on_head_ready=self._head_ready,
            on_level_directive=self._directive,
            on_packet_drained=partial(self.note, "drained"),
            on_overflow=partial(self.note, "overflow"),
            on_underflow=partial(self.note, "underflow"),
        )
        # the engine's per-event hook: snapshot after every dispatch
        sim.profiler = self

    # -- the EventLoopProfiler slots Simulator.run calls -------------------------------

    def begin_run(self):
        pass

    def end_run(self):
        pass

    def account_call(self, fn, elapsed_ns):
        self.states.append(self.state())

    # -- callbacks ---------------------------------------------------------------------

    def note(self, what, packet, *detail):
        self.log.append((self.sim.now, what, packet.packet_id if packet else None, *detail))

    def _directive(self, directive):
        self.note(directive.value, None)

    def _head_ready(self, packet):
        self.note("head-ready", packet)
        mode = self.grants[self.requests % len(self.grants)]
        self.requests += 1
        if mode == "discard":
            self.fifo.connect_drain([self.discard], broadcast=False)
        elif mode != "never":
            delay, fanout, broadcast = mode
            if delay:
                self.pending = self.sim.after(delay, self._grant, fanout, broadcast)
            else:
                self._grant(fanout, broadcast)

    def _grant(self, fanout, broadcast):
        self.fifo.connect_drain(self.sinks[:fanout], broadcast=broadcast)

    def state(self):
        fifo = self.fifo
        return (
            self.sim.now,
            fifo._boundary_at if fifo._boundary is not None else None,
            fifo._last_update, fifo.in_rate, fifo.drain_rate, fifo._level_stop,
            fifo.overflowed, fifo.bytes_forwarded.hex(), fifo.max_level.hex(),
            fifo.cut_through_packets, fifo.buffered_packets,
            tuple(
                (e.packet.packet_id, e.bytes_in.hex(), e.bytes_out.hex(), e.arriving,
                 e.requested, e.drain_started)
                for e in fifo.queue
            ),
        )

    # -- the script --------------------------------------------------------------------

    def packet(self, data_bytes):
        packet = Packet(dest_short=0x20, src_short=0x30, ptype=PacketType.DIAGNOSTIC,
                        data_bytes=data_bytes, packet_id=self.sim.new_packet_id())
        self.packets.append(packet)
        return packet

    def play(self, steps, peek):
        sim, fifo = self.sim, self.fifo
        for step, *args in steps:
            if step == "packet":  # arrive at line rate around stalls, then end
                packet = self.packet(args[0])
                fifo.begin_packet(packet, 1.0)
                arrived = 0
                for slots, stall_ns in args[1]:
                    sim.run_for(slots * BYTE_TIME_NS)
                    fifo.set_in_rate(0.0)
                    sim.run_for(stall_ns)
                    fifo.set_in_rate(1.0)
                    arrived += slots
                sim.run_for(max(0, packet.wire_bytes - arrived) * BYTE_TIME_NS)
                fifo.end_packet(packet)
            elif step == "begin":
                fifo.begin_packet(self.packet(args[0]), args[1])
            elif step == "end" and self.packets:
                fifo.end_packet(self.packets[-1])
            elif step == "rate":  # upstream stalls or resumes
                fifo.set_in_rate(args[0])
            elif step == "buffered":  # a whole packet, as the parent queued one
                naive_fifo.enqueue_buffered(fifo, self.packet(args[0]))
            elif step == "reset":  # what a switch reset does to one port
                if self.pending is not None:
                    cancel(self.pending)  # the scheduling engine is cleared
                fifo.clear()
            elif step == "toggle":
                sink = self.sinks[args[0]]
                sink.allowed = not sink.allowed
                fifo.recompute()
            elif step == "wait":
                sim.run_for(args[0])
            elif step == "peek" and peek:
                check_peek(self)
            self.states.append(self.state())
        # let whatever can still move, move
        for sink in self.sinks:
            sink.allowed = True
        fifo.recompute()
        sim.run_for(20_000_000)
        self.states.append(self.state())
        return sim.events_dispatched, self.log, self.states


def check_peek(rig):
    """``peek_level()`` changes nothing and agrees with ``level``, which
    is read on a copy because reading it advances the state."""
    fifo = rig.fifo
    before = rig.state()
    peeked = fifo.peek_level()
    assert rig.state() == before
    # the comparisons return the operands min/max did: the same float
    assert repr(peeked) == repr(naive_fifo.peek_level(fifo))
    twin = copy.deepcopy(fifo, {id(rig.log): [], id(rig.states): []})
    assert abs(peeked - twin.level) <= 1e-6


_SIZES = st.integers(0, 3000)
_BEGIN = st.tuples(st.just("begin"), _SIZES, st.sampled_from([1.0, 0.0]))
#: gaps of a few slots and of whole packets, so stalls land inside packets
_WAIT = st.tuples(st.just("wait"), st.one_of(st.integers(0, 4000), st.integers(0, 300_000)))
#: a whole packet: (slots arrived, then ns stalled) a few times, then the rest
_PACKET = st.tuples(
    st.just("packet"), _SIZES,
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 20_000)), max_size=3),
)
_STEPS = st.lists(
    # one_of draws its branches evenly: the repeats weight what packets do
    st.one_of(
        _PACKET, _PACKET, _PACKET, _BEGIN, _BEGIN, _WAIT, _WAIT,
        st.tuples(st.just("rate"), st.sampled_from([0.0, 1.0])),
        st.tuples(st.just("end")),
        st.tuples(st.just("buffered"), _SIZES),
        st.tuples(st.just("reset")),
        st.tuples(st.just("toggle"), st.sampled_from([0, 1])),
        st.tuples(st.just("peek")),
    ),
    min_size=4,
    max_size=40,
)
_GRANT = st.tuples(
    st.sampled_from([0, 80, 480, 3000, 100_000]), st.sampled_from([1, 2]), st.booleans()
)
#: per routing request, in turn: (delay ns, sinks, broadcast), a discard
#: (granted inside the callback) or never granted
_GRANTS = st.lists(
    st.one_of(_GRANT, _GRANT, _GRANT, st.just("discard"), st.just("never")),
    min_size=1,
    max_size=6,
)
_SHAPES = dict(
    capacity=st.sampled_from([1, 2, 40, 300, 1024, 4096]),
    stop_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    cut_through=st.sampled_from([1, 25, 3000]),
    grants=_GRANTS,
    steps=_STEPS,
)


@settings(max_examples=500, deadline=None)
@given(**_SHAPES)
# a lost end marker: the head is still flagged arriving, but the bytes
# coming in belong to the packet behind it, so it runs dry at rate 0
@example(capacity=4096, stop_fraction=0.5, cut_through=25, grants=[(0, 1, False)],
         steps=[("begin", 1000, 1.0), ("wait", 16_000), ("begin", 100, 1.0)])
# a lone tail never granted and never ended: it closes once whole, and no
# watermark boundary is armed past that instant
@example(capacity=4096, stop_fraction=0.5, cut_through=25, grants=["never"],
         steps=[("begin", 100, 1.0), ("wait", 200_000_000)])
def test_one_pass_matches_the_five_method_pass(capacity, stop_fraction, cut_through, grants,
                                                steps):
    real = Rig(capacity, stop_fraction, cut_through, grants).play(steps, peek=False)
    with pytest.MonkeyPatch.context() as patch:
        naive_fifo.install(patch)
        naive = Rig(capacity, stop_fraction, cut_through, grants).play(steps, peek=False)
    real_events, real_log, real_states = real
    naive_events, naive_log, naive_states = naive
    assert real_log == naive_log
    assert real_states == naive_states
    assert real_events == naive_events


@settings(max_examples=150, deadline=None)
@given(**_SHAPES)
def test_peek_level_is_observational(capacity, stop_fraction, cut_through, grants, steps):
    peeking = Rig(capacity, stop_fraction, cut_through, grants).play(steps, peek=True)
    plain = Rig(capacity, stop_fraction, cut_through, grants).play(steps, peek=False)
    assert peeking == plain


_HELD = st.tuples(st.integers(0, 3000), st.floats(0, 1), st.floats(0, 1))


@settings(max_examples=500, deadline=None)
@given(
    held=st.lists(_HELD, max_size=3), arriving=st.booleans(),
    in_rate=st.sampled_from([0.0, 1.0]), drain_rate=st.sampled_from([0.0, 0.5, 1.0]),
    dt=st.integers(-3, 400_000),
)
def test_peek_level_is_the_min_max_projection_to_the_bit(held, arriving, in_rate, drain_rate,
                                                         dt):
    """Any queue, rates and time since the last advance, not only those a
    script reaches: the projection is the one ``min``/``max`` made."""
    sim = Simulator()
    fifo = ReceiveFifo(sim, "peek.fifo")
    for data_bytes, part_in, part_out in held:
        packet = Packet(dest_short=0x20, src_short=0x30, ptype=PacketType.DIAGNOSTIC,
                        data_bytes=data_bytes, packet_id=sim.new_packet_id())
        entry = FifoPacket(packet, 25)
        entry.arriving = False
        entry.bytes_in = part_in * entry.size
        entry.bytes_out = part_out * entry.bytes_in
        fifo.queue.append(entry)
    if fifo.queue:
        fifo.queue[-1].arriving = arriving
    fifo.in_rate, fifo.drain_rate = in_rate, drain_rate
    sim.run_for(400_000)
    fifo._last_update = sim.now - dt
    assert repr(fifo.peek_level()) == repr(naive_fifo.peek_level(fifo))
