"""Checkers only tests call, kept beside the ``naive_*`` references.

Each was a public member of ``src/repro`` that nothing outside ``tests/``
read (``tests/test_readers.py`` holds ``src`` to that rule); the tests
that used them as oracles still do, from here.  Nothing under ``src/``
may import this module.
"""

import hashlib
import math

from repro.core.routing import DOWN, UP
from repro.core.topo import PortRef
from repro.obs.artifact import validate
from repro.obs.timeseries import TIMESERIES_SCHEMA, SeriesData, TimeSeries
from repro.types import MAX_SWITCH_NUMBER


def assert_trail_legal(topology, trail, uid_of_switch_name):
    """Verify a delivered packet's recorded hops form a legal up*/down*
    route: zero or more up traversals followed by zero or more down
    traversals (section 6.6.4).

    ``trail`` is the packet's route, one (switch name, in port, out
    ports) per hop, as ``repro.obs.inband.path_of`` reads it off the
    in-band hop stack; ``uid_of_switch_name`` maps names to UIDs.
    """
    index = topology.index()
    descended = False
    for i in range(len(trail) - 1):
        name, _in_port, out_ports = trail[i]
        next_name, next_in, _next_out = trail[i + 1]
        arrival = PortRef(uid_of_switch_name(next_name), next_in)
        # did one of the out ports lead to the next hop?
        nbrs = index.nbrs.get(uid_of_switch_name(name), {})
        if not any(nbrs.get(out_port) == arrival for out_port in out_ports):
            continue  # hop crossed a link no longer in this topology view
        if index.up_end[(arrival.uid, arrival.port)]:
            assert not descended, (
                f"illegal route: up traversal {name}->{next_name} after a "
                f"down traversal; trail={trail}"
            )
        else:
            descended = True


class ProgressMonitor:
    """Runtime deadlock detector for the simulated data plane.

    Tracks the set of packets injected but not yet delivered or discarded.
    When the simulator's event queue has drained while packets remain
    pending, nothing can ever advance them: that is a realized deadlock
    (the symptom of Figure 9).  Call :meth:`check` after ``run()`` returns.
    """

    def __init__(self):
        self.pending = set()
        self.deadlocked = False
        self.deadlocked_at = -1

    def injected(self, packet_id):
        self.pending.add(packet_id)

    def finished(self, packet_id):
        self.pending.discard(packet_id)

    def check(self, sim):
        """Latch a deadlock if the queue is empty with packets pending."""
        if self.pending and not self.deadlocked and sim.pending_events() == 0:
            self.deadlocked = True
            self.deadlocked_at = sim.now
        return self.deadlocked


def verify_assignment(assignment, uids):
    """Raise if the assignment is not a bijection over the given switches."""
    numbers = list(assignment.values())
    if len(set(numbers)) != len(numbers):
        raise ValueError("duplicate switch numbers assigned")
    missing = [uid for uid in uids if uid not in assignment]
    if missing:
        raise ValueError(f"switches without numbers: {missing}")
    bad = [n for n in numbers if not 1 <= n <= MAX_SWITCH_NUMBER]
    if bad:
        raise ValueError(f"numbers out of range: {bad}")


def arrival_phase(topology, uid, in_port):
    """Phase of a packet arriving at ``uid`` on ``in_port``.

    Arrivals from hosts or the control processor have used no
    switch-to-switch link, so they may still go up; over a link, the
    packet climbed toward the root (still UP) iff we are its up end.
    """
    return UP if topology.index().up_end.get((uid, in_port), True) else DOWN


def percentile(values, p):
    """Nearest-rank percentile, p in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def stddev(values):
    if len(values) < 2:
        return 0.0
    mu = sum(values) / len(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def mbits(bytes_count):
    return bytes_count * 8 / 1_000_000


def trace_digest(net):
    """sha256 of every autopilot's ``TraceLog``, switch by switch: a run's
    whole control-plane history as one hex string."""
    trace = tuple(
        (e.component, e.local_time, e.event, e.detail)
        for ap in net.autopilots
        for e in ap.trace.entries()
    )
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def sampler_view(sampler):
    """A query view over a live sampler's rings (a snapshot, not a link)."""
    return TimeSeries(validate(sampler.document(), TIMESERIES_SCHEMA))


def series_window(series, t0_ns, t1_ns):
    """The sub-series of ``series`` with ``t0_ns <= t < t1_ns``."""
    kept = [(t, v) for t, v in zip(series.ticks, series.values) if t0_ns <= t < t1_ns]
    return SeriesData(
        series.name, series.labels, series.kind, [t for t, _ in kept], [v for _, v in kept]
    )


def series_max(series):
    values = [v for _t, v in series.points()]
    return max(values) if values else None


def series_min(series):
    values = [v for _t, v in series.points()]
    return min(values) if values else None
