"""Property-based tests on the fluid FIFO model: byte conservation and
monotonicity under arbitrary arrival/drain/flow-control interleavings."""

from hypothesis import given, settings, strategies as st

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import DiscardSink, ReceiveFifo
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator


class GatedSink(DiscardSink):
    """A drain target whose permission can be toggled (models downstream
    flow control), counting the packets that ended in it."""

    def __init__(self):
        super().__init__()
        self.allowed = True
        self.ended = 0

    def drain_allowed(self, broadcast):
        return self.allowed

    def notify_end(self, packet):
        self.ended += 1


@st.composite
def scripts(draw):
    """A random interleaving of packet arrivals, drain connects, and
    flow-control toggles, with durations."""
    steps = []
    n = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n):
        kind = draw(st.sampled_from(["packet", "toggle", "wait"]))
        if kind == "packet":
            steps.append(("packet", draw(st.integers(min_value=1, max_value=3000))))
        elif kind == "toggle":
            steps.append(("toggle", None))
        else:
            steps.append(("wait", draw(st.integers(min_value=1, max_value=2000))))
    return steps


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_conservation_and_completion(script):
    """Whatever the interleaving: bytes out <= bytes in per packet, the
    level is never negative, and once the gate stays open every packet
    fully drains."""
    sim = Simulator()
    fifo = ReceiveFifo(sim, "prop.fifo", capacity=1 << 20)
    sink = GatedSink()
    drained = []
    fifo.on_packet_drained = drained.append
    fifo.on_head_ready = lambda pkt: fifo.connect_drain([sink], broadcast=False)

    sent = []
    for kind, value in script:
        if kind == "packet":
            pkt = Packet(dest_short=0x20, src_short=0x30, ptype=PacketType.DIAGNOSTIC,
                         data_bytes=value, packet_id=sim.new_packet_id())
            sent.append(pkt)
            # arrival at line rate, end marker at the exact arrival time
            fifo.begin_packet(pkt, 1.0)
            sim.run_for(pkt.wire_bytes * BYTE_TIME_NS)
            fifo.end_packet(pkt)
        elif kind == "toggle":
            sink.allowed = not sink.allowed
            fifo.recompute()
        else:
            sim.run_for(value * BYTE_TIME_NS)
        # invariants hold at every step
        level = fifo.level
        assert level >= -1e-6
        for entry in fifo.queue:
            assert entry.bytes_out <= entry.bytes_in + 1e-6
            assert entry.bytes_in <= entry.size + 1e-6

    # open the gate and let everything finish
    sink.allowed = True
    fifo.recompute()
    sim.run_for(10 * sum(p.wire_bytes for p in sent) * BYTE_TIME_NS + 1_000_000)
    assert [p.packet_id for p in drained] == [p.packet_id for p in sent]
    assert fifo.level == 0
    assert not fifo.overflowed


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=5)
)
def test_fifo_order_preserved(sizes):
    """Packets drain in arrival order regardless of size mix."""
    sim = Simulator()
    fifo = ReceiveFifo(sim, "order.fifo", capacity=1 << 20)
    sink = DiscardSink()
    drained = []
    fifo.on_packet_drained = drained.append
    fifo.on_head_ready = lambda pkt: fifo.connect_drain([sink], broadcast=False)

    packets = []
    for size in sizes:
        pkt = Packet(dest_short=0x20, src_short=0x30, ptype=PacketType.DIAGNOSTIC,
                     data_bytes=size, packet_id=sim.new_packet_id())
        packets.append(pkt)
        fifo.begin_packet(pkt, 1.0)
        sim.run_for(pkt.wire_bytes * BYTE_TIME_NS)
        fifo.end_packet(pkt)
    sim.run_for(10_000_000 + 10 * sum(p.wire_bytes for p in packets) * BYTE_TIME_NS)
    assert [p.packet_id for p in drained] == [p.packet_id for p in packets]
