"""Static deadlock analysis via channel-dependency graphs (section 3.6).

With flow-controlled FIFOs and no packet discard, a set of routes can
deadlock iff the *channel dependency graph* has a cycle: nodes are
directed link channels, and there is an edge from channel c1 to c2
whenever some packet can occupy c1 while waiting for c2 at the switch
between them.  Up*/down* routing is deadlock-free because the spanning
tree's link orientation makes this graph acyclic; unrestricted
shortest-path routing on the same topology generally is not, which the
E11 ablation bench demonstrates.
"""

from __future__ import annotations

from typing import List, Mapping, Set, Tuple

import networkx as nx

from repro.core.topo import PortRef, TopologyMap
from repro.net.forwarding import ForwardingEntry
from repro.types import Uid

#: a channel: bytes flowing from one switch port into a neighbor's port
Channel = Tuple[PortRef, PortRef]

EntryMap = Mapping[Tuple[int, int], ForwardingEntry]


def channel_dependency_graph(
    topology: TopologyMap,
    entries_by_uid: Mapping[Uid, EntryMap],
) -> "nx.DiGraph":
    """Build the channel dependency graph induced by the loaded tables.

    Only switch-to-switch channels are modeled; channels to and from hosts
    are sources/sinks and cannot participate in cycles.  Any forwarding
    loop the tables admit is a cycle here, which is why the table walks of
    :mod:`repro.analysis.invariants` do not look for one.
    """
    index = topology.index()
    graph = nx.DiGraph()
    for uid, ports in index.nbrs.items():
        for port, far in ports.items():
            graph.add_node((PortRef(uid, port), far))

    for uid, entries in entries_by_uid.items():
        nbrs = index.nbrs.get(uid, {})
        # one pass per distinct (receiving port, port vector) row: every
        # address sharing a row induces the same dependencies
        rows: Set[Tuple[int, Tuple[int, ...]]] = set()
        for (in_port, _address), entry in entries.items():
            sender = nbrs.get(in_port)
            if sender is None:
                continue  # packets from hosts/CP start chains, no upstream hold
            row = (in_port, entry.ports)
            if row in rows:
                continue
            rows.add(row)
            upstream: Channel = (sender, PortRef(uid, in_port))
            for out_port in entry.ports:
                far = nbrs.get(out_port)
                if far is not None:  # else a host or the CP: chain ends
                    graph.add_edge(upstream, (PortRef(uid, out_port), far))
    return graph


def dependency_cycles(graph: "nx.DiGraph", limit: int = 50) -> List[List[Channel]]:
    """Up to ``limit`` elementary cycles of the dependency graph."""
    cycles = []
    for cycle in nx.simple_cycles(graph):
        cycles.append(cycle)
        if len(cycles) >= limit:
            break
    return cycles


def has_deadlock_potential(
    topology: TopologyMap, entries_by_uid: Mapping[Uid, EntryMap]
) -> bool:
    """True iff the loaded routes admit a circular channel dependency."""
    graph = channel_dependency_graph(topology, entries_by_uid)
    return not nx.is_directed_acyclic_graph(graph)


class ProgressMonitor:
    """Runtime deadlock detector for the simulated data plane.

    Tracks the set of packets injected but not yet delivered or discarded.
    When the simulator's event queue drains while packets remain pending,
    nothing can ever advance them: that is a realized deadlock (the
    symptom of Figure 9).
    """

    def __init__(self) -> None:
        self.pending: Set[int] = set()
        self.deadlocked = False
        self.deadlocked_at: int = -1

    def injected(self, packet_id: int) -> None:
        self.pending.add(packet_id)

    def finished(self, packet_id: int) -> None:
        self.pending.discard(packet_id)

    def install(self, sim) -> None:
        sim.add_idle_hook(self._idle)

    def _idle(self, sim) -> None:
        if self.pending and not self.deadlocked:
            self.deadlocked = True
            self.deadlocked_at = sim.now
