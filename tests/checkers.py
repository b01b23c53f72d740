"""Checkers only tests call, kept beside the ``naive_*`` references.

Each was a public member of ``src/repro`` that nothing outside ``tests/``
read (``tests/test_readers.py`` holds ``src`` to that rule); the tests
that used them as oracles still do, from here.  Nothing under ``src/``
may import this module.
"""

import math

from repro.analysis.deadlock import channel_dependency_graph, is_acyclic
from repro.analysis.invariants import deliveries
from repro.core.routing import DOWN, UP
from repro.core.topo import PortRef
from repro.types import MAX_SWITCH_NUMBER


def trace_delivery(topology, entries_by_uid, start_uid, start_port, address):
    """All (switch, port) deliveries reachable for a packet, across every
    alternative-port choice the switches could make.

    Each (switch, in-port) state is expanded once, so the walk terminates
    on any tables.  A forwarding loop is therefore not reported here: it
    is a cycle of switch-to-switch channels, which the deadlock-freedom
    check owns (:func:`repro.analysis.deadlock.channel_dependency_graph`).
    """
    return deliveries(topology.index().nbrs, entries_by_uid, start_uid, start_port, address)


def assert_trail_legal(topology, trail, uid_of_switch_name):
    """Verify a delivered packet's recorded hops form a legal up*/down*
    route: zero or more up traversals followed by zero or more down
    traversals (section 6.6.4).

    ``trail`` is the packet's per-hop record [(switch name, in port,
    out ports)]; ``uid_of_switch_name`` maps names to UIDs.
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


def has_deadlock_potential(topology, entries_by_uid):
    """True iff the loaded routes admit a circular channel dependency."""
    return not is_acyclic(channel_dependency_graph(topology, entries_by_uid))


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
