"""At most two markers on the wire behave as the four they replaced.

A packet crosses a link as ``begin`` (at a rate) and, into a host or when
it may not have arrived whole, ``end``: a switch FIFO closes a packet whose
bytes are all in by itself.  A rate marker travels only for a change inside
the packet, and the crossbar scans only when a queued request meets a free
port.  Three guards, against the parent protocol kept in
``tests/naive_wire.py`` (which sends every end marker and checks that each
one the real side omits carries no news):

* a **Hypothesis differential** over one link -- source buffer, ``Link``,
  ``ReceiveFifo``, gated sink -- under random sizes, gaps, stalls on either
  side, forced aborts and a cable cut mid-packet;
* an **end-to-end differential** over whole networks (CI also runs this
  file in the ``determinism`` job under ``PYTHONHASHSEED=0`` and
  ``=random``): identical trace logs, epochs, monitor state and delivery
  latencies, and an event count that differs by *exactly* the markers and
  scans the naive side reports as folded;
* an **exact cost guard** with no wall clock in it: one marker into a
  switch, two into a host, and 4 events per switch hop for one small
  unicast.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import BYTE_TIME_NS, MS, SEC, US
from benchmarks.rigs.fifo_sizing import _Source
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.host.workload import PeriodicSender, Sink
from repro.net.fifo import ReceiveFifo
from repro.net.flowcontrol import Directive
from repro.net.link import Endpoint, Link, LinkState
from repro.net.packet import Packet, PacketType
from repro.network import Network
from repro.obs.profiler import EventLoopProfiler
from repro.sim.engine import Simulator
from repro.topology import line, resolve_topology
from tests import naive_wire
from tests.core.test_sampler_oracle import (
    observe,
    ring_cut_restore,
    src_lan_boot_and_cut,
    torus_flaps_crash_restart,
)
from tests.net.test_fifo_properties import GatedSink

# -- (a) one link, driven by a script ------------------------------------------------------


class LoggingSink(GatedSink):
    """The far side of the receive FIFO: a drain the script can stall."""

    def __init__(self, log, sim):
        super().__init__()
        self.log, self.sim = log, sim

    def notify_begin(self, packet, broadcast, rate):
        self.log.append((self.sim.now, "drain-begin", packet.wire_bytes))


class Source(_Source):
    """The E2 rig's transmit buffer, its flow-control latch flipped by
    the script instead of by a far end."""

    def gate(self, allowed):
        self.fc_receiver.receive(Directive.START if allowed else Directive.STOP)

    def abort(self):
        """What ``HostPort.clear_tx`` does."""
        self.tx.abort()
        self.buffer.clear()


class Receiver(Endpoint):
    """A link unit's receive half, logging every callback of its FIFO."""

    needs_end_marker = False  # as a link unit: the FIFO closes a whole tail

    def __init__(self, sim, log, capacity, grant_delay):
        self.sim, self.log, self.grant_delay = sim, log, grant_delay
        self._ran_dry = None
        self.sink = LoggingSink(log, sim)
        self.fifo = ReceiveFifo(
            sim, "rx.fifo", capacity=capacity,
            on_head_ready=self._head_ready,
            on_level_directive=lambda d: log.append((sim.now, d.value)),
            on_packet_drained=lambda p: log.append((sim.now, "drained", p.wire_bytes)),
            on_overflow=self._overflow,
            on_underflow=self._underflow,
        )

    def _underflow(self, packet):
        # The FIFO raises Underflow in every pass it makes while its head is
        # stalled dry, so how often is a count of passes, and the naive side
        # makes one more per folded marker.  What both must agree on is
        # which packets ran dry, and when each first did.
        if packet is not self._ran_dry:
            self._ran_dry = packet
            self.log.append((self.sim.now, "underflow"))

    def _overflow(self, packet):
        self.log.append((self.sim.now, "overflow"))

    def _head_ready(self, packet):
        self.log.append((self.sim.now, "head-ready", packet.wire_bytes))
        if self.grant_delay:
            self.sim.after(self.grant_delay, self._grant)
        else:
            self._grant()

    def _grant(self):
        self.fifo.connect_drain([self.sink], broadcast=False)

    def rx_begin_packet(self, packet, rate):
        self.fifo.begin_packet(packet, rate)

    def rx_set_rate(self, rate):
        self.fifo.set_in_rate(rate)

    def rx_end_packet(self, packet):
        self.fifo.end_packet(packet)


#: (what happens, how long until the next thing): gaps of a few slots and
#: gaps of a whole packet, so that stalls land inside packets
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.integers(1, 3000),  # a packet of that many data bytes
            # stalls more often than faults: an abort or a cut ends the story
            st.sampled_from(["source"] * 4 + ["sink"] * 3 + ["abort", "cut", "restore"]),
        ),
        st.one_of(st.integers(0, 4000), st.integers(0, 300_000)),
    ),
    min_size=1,
    max_size=30,
)


def run_link(steps, slots, capacity, grant_delay):
    """Play ``steps`` over one link; everything observable about it."""
    sim = Simulator()
    log = []
    source = Source(sim)
    source.gate(True)
    receiver = Receiver(sim, log, capacity, grant_delay)
    link = Link(sim, source, receiver)
    link.delay_ns = slots * BYTE_TIME_NS
    packets = []
    for step, gap_ns in steps:
        if isinstance(step, int):
            packets.append(Packet(dest_short=0x20, src_short=0x30,
                                  ptype=PacketType.DIAGNOSTIC, data_bytes=step))
            source.offer(packets[-1])
        elif step == "sink":
            receiver.sink.allowed = not receiver.sink.allowed
            receiver.fifo.recompute()
        elif step == "source":
            source.gate(not source.fc_receiver.transmission_allowed)
        elif step == "abort":
            source.abort()
        else:
            link.set_state(LinkState.CUT if step == "cut" else LinkState.UP)
        sim.run_for(gap_ns)
    # let whatever can still move, move
    link.set_state(LinkState.UP)
    source.gate(True)
    receiver.sink.allowed = True
    receiver.fifo.recompute()
    sim.run_for(20 * MS)
    # cut-through + buffered: when a head completes in the very nanosecond
    # the next packet's end marker arrives, which handler runs first decides
    # how that packet's drain is *classified* (not when it starts), and the
    # naive side's rate(0) marker runs ahead of both
    fifo = receiver.fifo
    stats = [
        (fifo.bytes_forwarded, fifo.max_level, fifo.cut_through_packets + fifo.buffered_packets,
         fifo.packets_seen, len(fifo.queue)),
        # the source's transmit queue keeps no statistics: what it still holds
        [entry.bytes_out.hex() for entry in source.buffer.queue],
    ]
    return sim.events_dispatched, (
        log, stats, [p.corrupted for p in packets], receiver.sink.ended,
    )


@settings(max_examples=300, deadline=None)
@given(
    steps=_STEPS,
    slots=st.integers(1, 50),
    capacity=st.sampled_from([64, 256, 1024, 4096]),
    grant_delay=st.sampled_from([0, 480, 3000]),
)
# a cut drops the abort's end and the next begin: the next end closes the
# 18-byte entry still arriving, or the pass drains bytes that never come
@example(steps=[(18, 0), ("cut", 0), ("abort", 0), (1, 0), (1, 0)], slots=1, capacity=64,
         grant_delay=0)
# a stopped sink holds a granted head past its cut-through bytes until the
# next begin lands at the instant the head is whole
@example(steps=[(1, 0), ("sink", 0), (1, 3320)], slots=9, capacity=64, grant_delay=0)
def test_one_link_matches_the_four_marker_protocol(steps, slots, capacity, grant_delay):
    """Same head-ready, drain-begin, drained, level-directive, overflow and
    underflow instants and the same FIFO statistics as begin, rate, rate(0),
    end sent as four events -- which cost exactly the folded markers more."""
    real_events, real = run_link(steps, slots, capacity, grant_delay)
    with pytest.MonkeyPatch.context() as patch:
        folded = naive_wire.install(patch)
        naive_events, naive = run_link(steps, slots, capacity, grant_delay)
    for got, want in zip(real, naive):
        assert got == want
    assert naive_events - real_events == folded.markers


# -- (b) whole networks --------------------------------------------------------------------


def storm(direction_tagged):
    """The section 7 reflecting-host storm, with and without the
    direction-tagged start commands that let a link unit discard it."""
    net = Network(line(3), seed=4, direction_tagged_links=direction_tagged)
    net.add_host("victim", [(1, 9)])
    net.add_host("observer", [(2, 9), (0, 8)])
    net.add_host("sender", [(0, 10), (2, 10)])
    sink = Sink(LocalNet(net.drivers["observer"]))
    sender = LocalNet(net.drivers["sender"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    net.power_off_host("victim", reflect=True)
    sender.send(BROADCAST_UID, 200)
    net.run_for(3 * SEC)
    return net, [sink]


def permutation_burst():
    """One host per switch of torus-3x4, each sending to the host five
    switches on: 64 B every 20 us, then 1500 B every 330 us (the shape of
    the benchmark's ``dataplane_torus``)."""
    spec = resolve_topology("torus-3x4")
    net = Network(spec, seed=2)
    names = [f"h{sw}" for sw in range(spec.n_switches)]
    for sw, name in enumerate(names):
        net.add_host(name, [(sw, spec.free_ports(sw)[sw % 3])])
    drivers = [net.drivers[name] for name in names]
    localnets = [LocalNet(driver) for driver in drivers]
    uids = [net.hosts[name].uid for name in names]
    assert net.run_until_converged(timeout_ns=60 * SEC)
    for driver in drivers:
        driver.kick()
    net.run_for(20 * MS)
    assert all(driver.ready for driver in drivers)
    perm = [(src + 5) % len(names) for src in range(len(names))]
    for src, dst in enumerate(perm):
        localnets[dst].send(uids[src], 64)  # learn unicast addresses
    net.run_for(2 * MS)
    sinks = [Sink(localnet) for localnet in localnets]
    for data_bytes, period_ns, count in ((64, 20 * US, 60), (1500, 330 * US, 30)):
        senders = [
            PeriodicSender(localnets[src], uids[dst], data_bytes, period_ns, count)
            for src, dst in enumerate(perm)
        ]
        net.run_for(count * period_ns + 5 * MS)
        assert sum(sender.accepted for sender in senders) == count * len(names)
    assert sum(sink.count for sink in sinks) == 90 * len(names)
    return net, sinks


SCENARIOS = {
    "ring_cut_restore": lambda: (ring_cut_restore(), []),
    "torus_flaps_crash_restart": lambda: (torus_flaps_crash_restart(), []),
    "src_lan_boot_and_cut": lambda: (src_lan_boot_and_cut(), []),
    "reflecting_host_storm": lambda: storm(direction_tagged=False),
    "direction_tagged_links": lambda: storm(direction_tagged=True),
    "permutation_burst": permutation_burst,
}


def observe_wire(scenario):
    return world_state(*scenario())


def world_state(net, sinks):
    """(events dispatched, everything else observable about the run)."""
    events, *state = observe(net)
    hosts = [
        (h.packets_sent, h.packets_received, h.crc_errors, h.packets_dropped_rx)
        for h in net.hosts.values()
    ]
    fifos = [
        (f.bytes_forwarded, f.max_level, f.cut_through_packets, f.buffered_packets, f.packets_seen)
        for switch in net.switches
        for f in (unit.fifo for unit in switch.ports.values())
    ]
    # the control processors' transmit queues keep no statistics: what
    # they still hold, and the byte the head has drained to
    cp_queues = [
        [entry.bytes_out.hex() for entry in switch._cp_queue.queue] for switch in net.switches
    ]
    return events, (*state, hosts, fifos, cp_queues, [sink.latencies_ns for sink in sinks])


@pytest.mark.parametrize("name", SCENARIOS)
def test_network_matches_the_four_marker_protocol(name, monkeypatch):
    real_events, real = observe_wire(SCENARIOS[name])
    folded = naive_wire.install(monkeypatch)
    naive_events, naive = observe_wire(SCENARIOS[name])
    # piecewise, so that a failure names what diverged
    for got, want in zip(real, naive):
        assert got == want
    assert folded.markers > 0 and folded.empty_scans > 0
    assert naive_events - real_events == folded.markers + folded.empty_scans


# -- (c) the exact cost guard ----------------------------------------------------------------


def test_a_unicast_costs_one_marker_into_a_switch_and_four_events_a_hop():
    net = Network(line(2), seed=1)
    net.add_host("a", [(0, 5)])
    net.add_host("b", [(1, 5)])
    to_a, to_b = (LocalNet(net.drivers[name]) for name in ("a", "b"))
    sink = Sink(to_b)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    for name in ("a", "b"):
        net.drivers[name].kick()
    net.run_for(20 * MS)
    to_b.send(net.hosts["a"].uid, 64)  # a learns b's short address
    net.run_for(2 * MS)
    delivered = sink.count

    # a quiet 100 us: only the packet's own events run under the profiler
    net.sim.profiler = profiler = EventLoopProfiler()
    assert to_a.send(net.hosts["b"].uid, 64)
    net.run_for(100 * US)
    net.sim.profiler = None
    assert sink.count == delivered + 1

    data_plane = ("LinkUnit.", "HostPort.", "ReceiveFifo.", "SchedulingEngine.")
    dispatched = {
        stats.category: stats.count
        for stats in profiler.hotspots()
        if stats.category.startswith(data_plane)
    }
    assert dispatched == {
        # host -> switch -> switch -> host: three traversals; a switch FIFO
        # closes the whole packet itself, the host delivers on its end marker
        "LinkUnit.rx_begin_packet": 2, "HostPort.rx_begin_packet": 1,
        "HostPort.rx_end_packet": 1,
        # per switch hop, after the begin: the request boundary, whose
        # pass scans and is granted, then the cut-through start and
        # completion boundaries; plus the host transmit buffer's completion
        "ReceiveFifo._on_boundary": 2 * 3 + 1,
    }
