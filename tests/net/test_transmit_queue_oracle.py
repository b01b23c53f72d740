"""The whole-packet transmit queue behaves as the buffered FIFO it replaced.

A control processor's port 0 and a host's transmit staging hold only whole
packets.  They were 1 GiB ``ReceiveFifo``s fed by ``enqueue_buffered`` and
ran the receive FIFO's full pass; they are now one ``TransmitQueue``, which
keeps that pass's float expressions for the drain it still has.
``tests/naive_fifo.py`` keeps the buffered path as ``BufferedQueue``.  A
Hypothesis differential drives both with the same random script (CI also
runs this file in the ``determinism`` job under ``PYTHONHASHSEED=0`` and
``=random``):

* enqueue 1 to 4 packets at a time, with gaps of a few slots and of whole
  packets;
* grant each head, after a delay or at once, to 1 to 3 targets -- two gated
  sinks and a switch's ``CpSink`` -- or discard it from inside the
  head-ready callback, re-entering the pass;
* stop and start a sink's flow control at random instants;
* ``clear()`` mid-drain;
* ``peek_level()`` at random instants.

Both must log the same markers (``notify_begin``/``notify_rate``/
``notify_end``, with their times, packets and rates), the same deliveries
to the control processor and the same peeked levels (type and
``float.hex``), and after every dispatched event arm the boundary for the
same instant and hold bit-identical ``bytes_out`` per entry.

Planted mutant: ``TransmitQueue._pass`` sending no rate marker when flow
control pauses or resumes a started drain (the far link unit would go on
counting bytes in) fails both cases below.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import TransmitQueue
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator, cancel
from repro.types import Uid
from tests.naive_fifo import BufferedQueue
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
    """One queue of either kind, its targets and grant policy."""

    def __init__(self, kind, grants):
        self.sim = sim = Simulator()
        self.log = []
        self.states = []
        self.grants, self.requests = grants, 0
        #: the delayed grant in flight, if any (one head at a time)
        self.pending = None
        self.sinks = [LoggingSink(self, "a"), LoggingSink(self, "b")]
        self.discard = LoggingSink(self, "discard")
        switch = Switch(sim, "sw", Uid(0xA))
        switch.on_cp_packet = partial(self.note, "cp")
        self.cp = switch._targets[0][0]
        self.queue = kind(sim, "oracle.tx", on_head_ready=self._head_ready,
                          on_packet_drained=partial(self.note, "drained"))
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

    def _head_ready(self, packet):
        self.note("head-ready", packet)
        mode = self.grants[self.requests % len(self.grants)]
        self.requests += 1
        if mode == "discard":
            self.queue.connect_drain([self.discard], broadcast=False)
        else:
            delay, targets, broadcast = mode
            if delay:
                self.pending = self.sim.after(delay, self._grant, targets, broadcast)
            else:
                self._grant(targets, broadcast)

    def _grant(self, targets, broadcast):
        self.pending = None
        every = [*self.sinks, self.cp]
        self.queue.connect_drain([every[i] for i in targets], broadcast=broadcast)

    def state(self):
        queue = self.queue
        return (
            self.sim.now,
            queue._boundary_at if queue._boundary is not None else None,
            queue._last_update, queue.drain_rate,
            tuple(
                (e.packet.packet_id, e.bytes_out.hex(), e.requested, e.drain_started)
                for e in queue.queue
            ),
        )

    # -- the script --------------------------------------------------------------------

    def play(self, steps):
        sim, queue = self.sim, self.queue
        for step, arg in steps:
            if step == "enqueue":
                for data_bytes in arg:
                    queue.enqueue(Packet(dest_short=0x20, src_short=0x30,
                                         ptype=PacketType.DIAGNOSTIC, data_bytes=data_bytes,
                                         packet_id=sim.new_packet_id()))
            elif step == "toggle":  # a target's flow control flips
                sink = self.sinks[arg]
                sink.allowed = not sink.allowed
                queue.recompute()
            elif step == "clear":  # a reset or a failover
                if self.pending is not None:
                    cancel(self.pending)
                    self.pending = None
                queue.clear()
            elif step == "peek":
                level = queue.peek_level()
                self.note("peek", None, type(level).__name__, float(level).hex())
            else:
                sim.run_for(arg)
            self.states.append(self.state())
        # let whatever can still move, move
        for sink in self.sinks:
            sink.allowed = True
        queue.recompute()
        sim.run_for(20_000_000)
        self.states.append(self.state())
        return sim.events_dispatched, self.log, self.states


#: gaps of a few slots, of odd nanoseconds and of whole packets
_WAIT = st.tuples(st.just("wait"), st.one_of(
    st.integers(0, 4000), st.integers(0, 79), st.integers(0, 300_000)))
_STEPS = st.lists(
    # one_of draws its branches evenly: the repeats weight the common steps
    st.one_of(
        st.tuples(st.just("enqueue"), st.lists(st.integers(0, 1500), min_size=1, max_size=4)),
        _WAIT, _WAIT, _WAIT,
        st.tuples(st.just("toggle"), st.sampled_from([0, 1])),
        st.tuples(st.just("toggle"), st.sampled_from([0, 1])),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("peek"), st.none()),
    ),
    min_size=2,
    max_size=40,
)
#: per head, in turn: (delay ns, target indices -- 0 and 1 the gated sinks,
#: 2 the control processor -- broadcast) or a discard inside the callback
_GRANT = st.tuples(
    st.sampled_from([0, 80, 480, 3000, 100_000]),
    st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3, unique=True),
    st.booleans(),
)
_GRANTS = st.lists(st.one_of(_GRANT, _GRANT, _GRANT, st.just("discard")),
                   min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(grants=_GRANTS, steps=_STEPS)
def test_the_transmit_queue_matches_the_buffered_fifo(grants, steps):
    real_events, real_log, real_states = Rig(TransmitQueue, grants).play(steps)
    naive_events, naive_log, naive_states = Rig(BufferedQueue, grants).play(steps)
    assert real_log == naive_log
    assert real_states == naive_states
    assert real_events == naive_events


def test_a_drain_paused_at_an_odd_nanosecond_completes_on_the_rounded_slot():
    """A stop at 1 001 ns pauses the drain 12.5125 bytes in, with a rate(0)
    marker; the start resumes it with a rate(1) marker, and the completion
    lands on the nearest ns of the slots left, as the buffered FIFO's did."""
    for kind in (TransmitQueue, BufferedQueue):
        rig = Rig(kind, [(0, [0], False)])
        events, log, _ = rig.play([
            ("enqueue", [0]), ("wait", 1001), ("toggle", 0), ("wait", 500), ("toggle", 0),
        ])
        assert [entry[:2] for entry in log] == [
            (0, "head-ready"), (0, "a.begin"), (1001, "a.rate"), (1501, "a.rate"),
            (1501 + round((40 - 1001 / BYTE_TIME_NS) * BYTE_TIME_NS), "a.end"),
            (1501 + round((40 - 1001 / BYTE_TIME_NS) * BYTE_TIME_NS), "drained"),
        ]
