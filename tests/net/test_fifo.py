"""The fluid-model receive FIFO: occupancy, cut-through, thresholds."""

import pytest

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import DiscardSink, ReceiveFifo
from repro.net.flowcontrol import Directive
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from tests.net.test_fifo_properties import GatedSink


def make_fifo(sim, **kwargs):
    events = {"ready": [], "directives": [], "drained": [], "overflow": []}
    fifo = ReceiveFifo(
        sim,
        "test.fifo",
        on_head_ready=lambda p: events["ready"].append((sim.now, p)),
        on_level_directive=lambda d: events["directives"].append((sim.now, d)),
        on_packet_drained=lambda p: events["drained"].append((sim.now, p)),
        on_overflow=lambda p: events["overflow"].append((sim.now, p)),
        **kwargs,
    )
    return fifo, events


def packet(size_data=100):
    return Packet(dest_short=0x20, src_short=0x30, ptype=PacketType.DIAGNOSTIC,
                  data_bytes=size_data)


def test_arrival_accumulates_linearly():
    sim = Simulator()
    fifo, events = make_fifo(sim)
    pkt = packet(1000)  # wire = 1040
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=100 * BYTE_TIME_NS)
    assert fifo.level == pytest.approx(100, abs=1)


def test_head_ready_after_two_address_bytes():
    """Routing request issued once the two address bytes arrive (§6.3)."""
    sim = Simulator()
    fifo, events = make_fifo(sim)
    fifo.begin_packet(packet(), 1.0)
    sim.run(until=10_000)
    assert events["ready"]
    t_ready = events["ready"][0][0]
    assert t_ready == pytest.approx(2 * BYTE_TIME_NS, abs=BYTE_TIME_NS)


def test_cut_through_starts_at_25_bytes():
    """Forwarding may begin after only 25 bytes have arrived (§3.5)."""
    sim = Simulator()
    fifo, events = make_fifo(sim)
    sink = DiscardSink()
    pkt = packet(1000)
    fifo.begin_packet(pkt, 1.0)

    drain_started = []
    orig = sink.notify_begin
    sink.notify_begin = lambda p, b, r: (drain_started.append(sim.now), orig(p, b, r))

    def connect():
        fifo.connect_drain([sink], broadcast=False)

    sim.at(1, connect)
    sim.run(until=1_000_000)
    assert drain_started
    assert drain_started[0] == pytest.approx(25 * BYTE_TIME_NS, abs=2 * BYTE_TIME_NS)


def test_passthrough_drains_at_arrival_rate():
    """With an empty buffer and ongoing arrival, cut-through forwards at
    the arrival rate; completion happens one wire-time after begin."""
    sim = Simulator()
    fifo, events = make_fifo(sim)
    sink = GatedSink()
    pkt = packet(1000)
    fifo.begin_packet(pkt, 1.0)
    fifo.connect_drain([sink], broadcast=False)
    end = pkt.wire_bytes * BYTE_TIME_NS
    sim.at(end, lambda: fifo.end_packet(pkt))
    sim.run(until=10 * end)
    assert events["drained"]
    assert events["drained"][0][0] == pytest.approx(end, rel=0.05)
    assert sink.ended == 1
    assert fifo.level == 0


def test_stop_directive_at_watermark():
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=1000, stop_fraction=0.5)
    pkt = packet(2000)
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=2 * 500 * BYTE_TIME_NS)
    stops = [d for d in events["directives"] if d[1] is Directive.STOP]
    assert stops
    assert stops[0][0] == pytest.approx(500 * BYTE_TIME_NS, rel=0.01)


def test_start_directive_when_draining_below_watermark():
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=1000, stop_fraction=0.5)
    pkt = packet(600)  # wire 640
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=pkt.wire_bytes * BYTE_TIME_NS)
    fifo.end_packet(pkt)
    assert fifo.stopped
    fifo.connect_drain([DiscardSink()], broadcast=False)
    sim.run(until=sim.now + 2000 * BYTE_TIME_NS)
    starts = [d for d in events["directives"] if d[1] is Directive.START]
    assert starts
    assert not fifo.stopped


def test_overflow_marks_packet_corrupted():
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=100)
    pkt = packet(500)
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=600 * BYTE_TIME_NS)
    assert events["overflow"]
    assert pkt.corrupted


def test_overflow_rearms_when_the_level_falls_back_within_capacity():
    """One report while the level stays above capacity; once it has fallen
    back, the next excess is reported again."""
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=100)
    sink = GatedSink()
    sink.allowed = False
    pkt = packet(1000)
    fifo.begin_packet(pkt, 1.0)
    fifo.connect_drain([sink], broadcast=False)
    sim.run(until=300 * BYTE_TIME_NS)
    assert len(events["overflow"]) == 1
    fifo.set_in_rate(0.0)  # upstream stalls while the drain empties the FIFO
    sink.allowed = True
    fifo.recompute()
    sim.run(until=sim.now + 400 * BYTE_TIME_NS)
    assert fifo.level == 0 and len(events["overflow"]) == 1
    sink.allowed = False  # ... then fills it again
    fifo.set_in_rate(1.0)
    sim.run(until=sim.now + 300 * BYTE_TIME_NS)
    assert len(events["overflow"]) == 2


def arrive_whole(sim, fifo, pkt):
    """``pkt`` arrives at line rate and is whole when this returns."""
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=sim.now + pkt.wire_bytes * BYTE_TIME_NS)


def test_queued_packets_drain_in_order():
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=1 << 20)
    first, second = packet(100), packet(100)
    for pkt in (first, second):
        arrive_whole(sim, fifo, pkt)
    sink = DiscardSink()
    # the head was announced; connect it, then the next on promotion
    assert [p for _, p in events["ready"]] == [first]
    fifo.connect_drain([sink], broadcast=False)
    sim.run(until=1_000_000)
    assert [p for _, p in events["ready"]] == [first, second]
    fifo.connect_drain([sink], broadcast=False)
    sim.run(until=2_000_000)
    assert [p for _, p in events["drained"]] == [first, second]


def test_drain_gated_by_target_permission():
    sim = Simulator()
    fifo, events = make_fifo(sim)
    sink = GatedSink()
    sink.allowed = False
    pkt = packet(100)
    arrive_whole(sim, fifo, pkt)
    fifo.connect_drain([sink], broadcast=False)
    sim.run(until=100_000)
    assert not events["drained"]
    sink.allowed = True
    fifo.recompute()
    sim.run(until=sim.now + 1_000_000)
    assert events["drained"]


def test_a_whole_tail_is_closed_and_arms_no_boundary():
    """A switch FIFO hears no end marker for a packet that arrives whole:
    the advance that finds every byte in closes the tail, with ``in_rate``
    back to 0.  Below the watermark nothing changes at that instant, so
    no boundary is armed for it, nor a watermark rise past it (the
    140-byte level never reaches the 2 048-byte watermark)."""
    sim = Simulator()
    fifo, events = make_fifo(sim)
    pkt = packet(100)  # wire = 140, never granted
    fifo.begin_packet(pkt, 1.0)
    sim.run(until=200_000_000)
    # the routing request at 2 bytes is the only boundary
    assert sim.events_dispatched == 1 and fifo._boundary is None
    fifo.recompute()
    [entry] = fifo.queue
    assert (entry.bytes_in, entry.arriving, fifo.in_rate) == (pkt.wire_bytes, False, 0.0)
    assert fifo._boundary is None
    assert events["directives"] == [] and events["overflow"] == []


def test_an_overflow_found_by_the_closing_advance_still_names_the_tail():
    """The tail-whole boundary's advance finds the level over capacity and
    closes the tail; the overflow check runs first, so the victim is that
    tail's packet, not nobody."""
    sim = Simulator()
    fifo, events = make_fifo(sim, capacity=100)
    arrive_whole(sim, fifo, packet(100))  # 140 bytes, never granted: over capacity
    dispatched, start, before = sim.events_dispatched, sim.now, list(events["overflow"])
    pkt = packet(100)
    fifo.begin_packet(pkt, 1.0)  # no capacity crossing ahead: one boundary, when whole
    sim.run(until=start + 1_000_000)
    end = start + pkt.wire_bytes * BYTE_TIME_NS
    assert sim.events_dispatched == dispatched + 1
    assert events["overflow"] == before + [(end, pkt)] and pkt.corrupted
    assert not fifo.queue[-1].arriving and fifo.in_rate == 0.0


def test_a_reset_mid_drain_counts_the_bytes_drained_up_to_it():
    """``clear()`` advances before it empties the queue: the 50 bytes that
    left since the last advance reach ``bytes_forwarded`` (a reset that
    cleared first dropped them from the count)."""
    sim = Simulator()
    fifo, events = make_fifo(sim)
    arrive_whole(sim, fifo, packet(100))  # wire = 140
    fifo.connect_drain([DiscardSink()], broadcast=False)
    sim.run(until=sim.now + 50 * BYTE_TIME_NS)
    fifo.clear()
    assert fifo.bytes_forwarded == 50.0
    assert not fifo.queue and fifo.drain_rate == 0.0 and fifo._boundary is None
    assert events["drained"] == []
