"""The latched link-unit status word (section 6.5.2) is never stale.

The chronic bits are cached and re-latched only when what the port hears
can change; the oracle in ``tests/naive_registers.py`` derives them at read
time from the link, the far endpoint and the receive latch.  A Hypothesis
property drives a switch port through random interleavings of everything
that changes what it hears and requires every read to agree with the
oracle (the engine-order suite is the model for this shape of test).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BYTE_TIME_NS
from repro.host.controller import HostController
from repro.net.flowcontrol import Directive
from repro.net.link import LinkState, connect
from repro.net.linkunit import OVERFLOW, PROGRESS_SEEN, UNDERFLOW, LinkUnit
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.obs.inband import InbandTelemetry, render_inband
from repro.sim.engine import Simulator
from repro.types import Uid
from tests.naive_registers import CHRONIC_BITS, chronic_status

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("state"), st.sampled_from(list(LinkState))),
        st.tuples(st.just("peer-power"), st.booleans()),
        st.tuples(st.just("peer-mode"), st.booleans()),
        st.tuples(st.just("own-power"), st.booleans()),
        st.tuples(st.just("directive"), st.sampled_from(list(Directive))),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=50_000)),
        st.tuples(st.just("read"), st.none()),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(host_peer=st.booleans(), ops=_OPS)
def test_cached_chronic_bits_equal_the_read_time_derivation(host_peer, ops):
    sim = Simulator()
    switch = Switch(sim, "A", Uid(0xA))
    unit = switch.ports[1]
    if host_peer:
        peer = HostController(sim, "h", Uid(0xB))
        far = peer.ports[0]
        link = connect(sim, far, unit)
    else:
        peer = Switch(sim, "B", Uid(0xB))
        far = peer.ports[1]
        link = connect(sim, unit, far)

    # the oracle's only memory: did an idhy reach the powered unit since
    # the last read (arrivals are looked up on the instance, so this spy
    # sees every delivery the link schedules)
    idhy_arrived = [False]
    deliver = unit.rx_flow_control

    def spy(directive):
        if unit.enabled and directive is Directive.IDHY:
            idhy_arrived[0] = True
        deliver(directive)

    unit.rx_flow_control = spy

    def read():
        word = unit.sample_status()
        assert word & CHRONIC_BITS == chronic_status(unit, idhy_arrived[0])
        idhy_arrived[0] = False

    for op, arg in ops:
        if op == "state":
            link.set_state(arg)
        elif op == "peer-power":
            peer.power_on() if arg else peer.power_off()
        elif op == "peer-mode" and host_peer:
            peer.select_port(0 if arg else 1)  # active / alternate (sync-only)
        elif op == "peer-mode":
            far.force_directive(None if arg else Directive.IDHY)
        elif op == "own-power":
            switch.power_on() if arg else switch.power_off()
        elif op == "directive":
            link.send_flow_control(far, arg)  # lost, reflected or delayed by the link
        elif op == "run":
            sim.run_for(arg)
        else:
            read()
    read()
    sim.run_for(1_000_000)
    read()


def test_event_bits_are_cleared_by_the_read():
    sim = Simulator()
    unit = Switch(sim, "A", Uid(0xA)).ports[1]
    connect(sim, unit, Switch(sim, "B", Uid(0xB)).ports[1])
    packet = Packet(dest_short=0x20, src_short=0x30)
    unit._note_overflow(packet)
    unit._note_underflow(packet)
    assert unit.sample_status() & (OVERFLOW | UNDERFLOW) == OVERFLOW | UNDERFLOW
    assert unit.sample_status() & (OVERFLOW | UNDERFLOW) == 0
    assert unit.overflow_drops == 1


class QueueDropSpy(InbandTelemetry):
    """Real in-band telemetry that also keeps each victim the one hook an
    overflowing FIFO calls names."""

    def __init__(self, sim):
        super().__init__(sim)
        self.victims = []

    def record_queue_drop(self, packet, fifo_name):
        self.victims.append(packet)
        super().record_queue_drop(packet, fifo_name)


def test_one_overflowing_packet_is_one_overflow_drop():
    """Overflow detection latches once per victim packet.  It used to be
    re-armed by the link unit at once, so every later advance while the
    level stayed above capacity counted the same packet again: three drops,
    three queue-drop reports and the OVERFLOW bit re-latched after a read."""
    sim = Simulator()
    sim.inband = spy = QueueDropSpy(sim)
    unit = LinkUnit(sim, "A.p1", 1, on_head_ready=lambda port, packet: None,
                    on_packet_drained=lambda port, packet: None, fifo_bytes=200)
    first = Packet(dest_short=0x20, src_short=0x30, data_bytes=1000)
    unit.rx_begin_packet(first, 1.0)  # nothing grants it: the FIFO fills
    sim.run_for(300 * BYTE_TIME_NS)
    assert unit.sample_status() & OVERFLOW
    unit.rx_set_rate(1.0)
    sim.run_for(300 * BYTE_TIME_NS)
    unit.rx_end_packet(first)
    assert not unit.sample_status() & OVERFLOW
    assert (unit.overflow_drops, spy.victims, first.corrupted) == (1, [first], True)

    # the next packet arrives into a FIFO that is still full: a new loss
    second = Packet(dest_short=0x20, src_short=0x30, data_bytes=100)
    unit.rx_begin_packet(second, 1.0)
    sim.run_for(second.wire_bytes * BYTE_TIME_NS)
    unit.rx_end_packet(second)
    assert unit.sample_status() & OVERFLOW
    assert (unit.overflow_drops, spy.victims, second.corrupted) == (2, [first, second], True)

    # each loss is one queue drop on the link's row of the in-band document
    doc = spy.document("overflow")
    assert [(row["link"], row["drops"]) for row in doc["links"]] == [("A.p1", 2)]
    assert "2 queue drops" in render_inband(doc)


def test_progress_seen_compares_two_reads():
    """ProgressSeen: bytes were forwarded since the last read, or nothing
    arrived and nothing is waiting."""
    sim = Simulator()
    unit = Switch(sim, "A", Uid(0xA)).ports[1]
    connect(sim, unit, Switch(sim, "B", Uid(0xB)).ports[1])
    assert unit.sample_status() & PROGRESS_SEEN  # idle counts as progress
    stuck = Packet(dest_short=0x123, src_short=0, data_bytes=100)
    unit.fifo.begin_packet(stuck, 0.0)
    assert not unit.sample_status() & PROGRESS_SEEN  # arrived, nothing forwarded
    assert not unit.sample_status() & PROGRESS_SEEN  # still waiting
    unit.fifo.bytes_forwarded += 10.0
    assert unit.sample_status() & PROGRESS_SEEN
    unit.reset()
    assert unit.sample_status() & PROGRESS_SEEN  # emptied: idle again
