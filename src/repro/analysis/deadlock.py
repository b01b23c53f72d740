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

from typing import Dict, Mapping, Set, Tuple

from repro.core.topo import PortRef, TopologyMap
from repro.net.forwarding import RowMap, distinct_rows
from repro.types import Uid

#: a channel: bytes flowing from one switch port into a neighbor's port
Channel = Tuple[PortRef, PortRef]

#: the dependency graph: channel -> the channels a packet on it may wait for
ChannelGraph = Dict[Channel, Set[Channel]]


def channel_dependency_graph(
    topology: TopologyMap,
    entries_by_uid: Mapping[Uid, RowMap],
) -> ChannelGraph:
    """Build the channel dependency graph induced by the loaded tables.

    Only switch-to-switch channels are modeled; channels to and from hosts
    are sources/sinks and cannot participate in cycles.  Any forwarding
    loop the tables admit is a cycle here, which is why the table walks of
    :mod:`repro.analysis.invariants` do not look for one.
    """
    index = topology.index()
    graph: ChannelGraph = {
        (PortRef(uid, port), far): set()
        for uid, ports in index.nbrs.items()
        for port, far in ports.items()
    }
    for uid, rows in entries_by_uid.items():
        nbrs = index.nbrs.get(uid, {})
        # packets from hosts/CP start chains, no upstream hold: only the
        # receiving ports with a switch behind them have a channel to extend
        held = [(port, graph[(sender, PortRef(uid, port))]) for port, sender in nbrs.items()]
        # a host or the CP ends the chain: only link ports continue it
        onward = {port: (PortRef(uid, port), far) for port, far in nbrs.items()}
        # every address sharing a row induces the same dependencies
        for _address, row in distinct_rows(rows):
            for in_port, waits_for in held:
                for out_port in row[in_port].ports:
                    if out_port in onward:
                        waits_for.add(onward[out_port])
    return graph


def is_acyclic(graph: Mapping[Channel, Set[Channel]]) -> bool:
    """Kahn's test: peel off nodes nothing points at until none is left;
    whatever remains sits on or behind a cycle.  Every successor must
    itself be a key of ``graph``."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    ready = [node for node, count in indegree.items() if not count]
    peeled = 0
    while ready:
        peeled += 1
        for node in graph[ready.pop()]:
            indegree[node] -= 1
            if not indegree[node]:
                ready.append(node)
    return peeled == len(graph)
