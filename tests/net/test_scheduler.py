"""The first-come, first-considered scheduling engine (section 6.4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ROUTER_DECISION_TIME_NS
from repro.net.forwarding import ForwardingEntry
from repro.net.packet import Packet
from repro.net.scheduler import Request, SchedulingEngine
from repro.sim.engine import Simulator
from tests.naive_registers import NaiveSchedulingEngine


def make_engine(sim, grants):
    return SchedulingEngine(
        sim, n_ports=12, grant=lambda req, ports: grants.append((req.in_port, ports))
    )


def pkt():
    return Packet(dest_short=0x20, src_short=0x30)


def mark_port_busy(engine, port):
    """Take ``port`` as a transmission in progress would hold it."""
    engine.free &= ~(1 << port)


def test_alternative_request_prefers_lowest_port():
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    engine.add_request(Request(1, ForwardingEntry((5, 3, 7)), pkt()))
    sim.run()
    assert grants == [(1, (3,))]


def test_busy_ports_skipped():
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 3)
    engine.add_request(Request(1, ForwardingEntry((3, 5)), pkt()))
    sim.run()
    assert grants == [(1, (5,))]


def test_request_waits_for_port_free():
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 4)
    engine.add_request(Request(2, ForwardingEntry((4,)), pkt()))
    sim.run()
    assert grants == []
    sim.at(sim.now + 10, engine.port_freed, 4)
    sim.run()
    assert grants == [(2, (4,))]


def test_decision_rate_480ns():
    """One request scheduled every 480 ns: 2 M requests/s (section 6.4)."""
    sim = Simulator()
    grant_times = []
    engine = SchedulingEngine(
        sim, n_ports=12, grant=lambda req, ports: grant_times.append(sim.now)
    )
    for i in range(4):
        engine.add_request(Request(i + 1, ForwardingEntry((i + 5,)), pkt()))
    sim.run()
    assert len(grant_times) == 4
    deltas = [b - a for a, b in zip(grant_times, grant_times[1:])]
    assert all(d >= 480 for d in deltas)


def test_out_of_order_service():
    """Queue jumping: younger requests may be serviced first when free
    ports don't suit older ones (section 6.4)."""
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 3)
    engine.add_request(Request(1, ForwardingEntry((3,)), pkt()))   # blocked
    engine.add_request(Request(2, ForwardingEntry((5,)), pkt()))   # free
    sim.run()
    assert grants == [(2, (5,))]
    engine.port_freed(3)
    sim.run()
    assert grants == [(2, (5,)), (1, (3,))]


def test_broadcast_waits_for_all_ports():
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 2)
    engine.add_request(Request(1, ForwardingEntry((2, 3, 4), broadcast=True), pkt()))
    sim.run()
    assert grants == []
    engine.port_freed(2)
    sim.run()
    assert grants == [(1, (2, 3, 4))]


def test_broadcast_reserves_ports_against_younger_requests():
    """Accumulated broadcast captures are not stolen by younger requests:
    the starvation-freedom property of section 6.4."""
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 2)
    # broadcast wants 2 and 3; it captures 3 now and waits for 2
    engine.add_request(Request(1, ForwardingEntry((2, 3), broadcast=True), pkt()))
    sim.run()
    # a younger alternative request wants 3 (reserved) or 7
    engine.add_request(Request(4, ForwardingEntry((3, 7)), pkt()))
    sim.run()
    assert grants == [(4, (7,))]  # it got 7, not the reserved 3
    engine.port_freed(2)
    sim.run()
    assert grants[-1] == (1, (2, 3))


def test_broadcast_eventually_scheduled_under_contention():
    """A broadcast request accumulates ports as they free and is never
    starved by a stream of alternative requests."""
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 2)
    mark_port_busy(engine, 3)
    engine.add_request(Request(1, ForwardingEntry((2, 3), broadcast=True), pkt()))

    # competing single-port requests keep arriving for ports 2 and 3
    def compete(i):
        engine.add_request(Request(5 + (i % 8), ForwardingEntry((2, 3)), pkt()))

    for i in range(5):
        sim.at(1000 * (i + 1), compete, i)
    sim.at(10_000, engine.port_freed, 2)
    sim.at(20_000, engine.port_freed, 3)
    sim.run()
    assert (1, (2, 3)) in grants


def test_clear_drops_requests_and_reservations():
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    mark_port_busy(engine, 2)
    engine.add_request(Request(1, ForwardingEntry((2, 3), broadcast=True), pkt()))
    sim.run()
    engine.clear()
    engine.port_freed(2)
    sim.run()
    assert grants == []
    assert not engine.queue


def test_no_scan_is_armed_until_a_request_meets_a_free_port():
    """A freed port no queued mask meets scans nothing (it could grant and
    reserve nothing).  The next matching ``add_request`` or ``port_freed``
    scans at once while the engine is free, and arms one scan for the end
    of its 480 ns decision time while it is busy."""
    sim = Simulator()
    grants = []
    engine = make_engine(sim, grants)
    for port in (3, 4, 7):
        mark_port_busy(engine, port)
    engine.add_request(Request(1, ForwardingEntry((3, 4)), pkt()))
    assert grants == [] and sim.pending_events() == 0
    engine.port_freed(7)
    assert grants == [] and sim.pending_events() == 0
    engine.port_freed(4)
    assert grants == [(1, (4,))] and sim.pending_events() == 0
    # busy until 480: a broadcast's reservation is progress, so a partial
    # match arms a scan for then
    engine.add_request(Request(2, ForwardingEntry((3, 7), broadcast=True), pkt()))
    assert sim.pending_events() == 1
    sim.run()
    assert grants == [(1, (4,))] and sim.events_dispatched == 1 and sim.now == 480
    engine.port_freed(4)
    assert sim.pending_events() == 0
    engine.port_freed(3)
    assert grants == [(1, (4,)), (2, (3, 7))] and sim.pending_events() == 0


# -- scan equivalence: the free-port vector against the set-based engine --------------

_PORT = st.integers(min_value=0, max_value=12)
_SCAN_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"), _PORT,
            st.lists(_PORT, min_size=1, max_size=5, unique=True), st.booleans(),
        ),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("isolate"), _PORT),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=1500)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(busy=st.sets(_PORT, max_size=6), ops=_SCAN_OPS)
def test_scan_matches_the_naive_set_based_engine(busy, ops):
    """Same grants, at the same instants, in the same order, on the same
    ports -- through requests, broadcast reservations, frees and port
    isolation -- as an engine that rebuilds a free *set* per scan and
    scans at once whenever its decision time is over."""
    sims = Simulator(), Simulator()
    logs = [], []

    def recorder(side):
        return lambda req, ports: logs[side].append((sims[side].now, req.in_port, ports))

    engines = (
        SchedulingEngine(sims[0], 12, grant=recorder(0)),
        NaiveSchedulingEngine(sims[1], 12, recorder(1), ROUTER_DECISION_TIME_NS),
    )
    for port in sorted(busy):
        mark_port_busy(engines[0], port)
        engines[1].mark_port_busy(port)
    held = sorted(busy)  # allocated ports: marked busy above, or granted since
    seen = 0
    for op in ops:
        if op[0] == "request":
            for engine in engines:
                engine.add_request(Request(op[1], ForwardingEntry(tuple(op[2]), op[3]), pkt()))
        elif op[0] == "free" and held:
            # the hardware frees only what a finished transmission held
            port = held.pop(op[1] % len(held))
            for engine in engines:
                engine.port_freed(port)
        elif op[0] == "isolate":
            for engine in engines:
                engine.remove_requests_from(op[1])
        elif op[0] == "run":
            for sim in sims:
                sim.run_for(op[1])
        assert logs[0] == logs[1]
        held += [port for _now, _in_port, ports in logs[0][seen:] for port in ports]
        seen = len(logs[0])
    for sim in sims:
        sim.run()
    assert logs[0] == logs[1]
    assert engines[0].grants == len(logs[0])
