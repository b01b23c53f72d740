"""Naive reference versions of the topology views and routing sweeps.

These are the implementations ``src/`` had before ``TopologyIndex`` and
before tables became rows: every lookup scans every link, a table is a
dict of ``(receiving port, address)`` cells written one at a time, every
sweep visits every cell.  They are kept deliberately slow and obvious, as
the oracle the index, the row builder and the row sweeps are pinned to
(the engine-order suite does the same for the scheduler).  :func:`cells`
expands ``{address: row}`` tables into that cell shape.  Nothing under
``src/`` may import this module.
"""

from collections import deque

import networkx as nx

from repro.constants import (
    ADDR_BROADCAST_ALL,
    ADDR_BROADCAST_HOSTS,
    ADDR_BROADCAST_SWITCHES,
    CONTROL_PROCESSOR_PORT,
    PORTS_PER_SWITCH,
)
from repro.core.routing import DOWN, UP
from repro.core.topo import NetLink, PortRef
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry
from repro.types import make_short_address


def cells(rows):
    """``{address: row}`` as ``{(receiving port, address): entry}``."""
    return {
        (in_port, address): entry
        for address, row in rows.items()
        for in_port, entry in enumerate(row)
    }


def cells_by_uid(rows_by_uid):
    return {uid: cells(rows) for uid, rows in rows_by_uid.items()}


def build_forwarding_entries(topology, my_uid, my_host_ports=None, n_ports=PORTS_PER_SWITCH):
    """One switch's table, cell by cell (the builder ``src/`` had before
    ``core.routing.build_forwarding_entries`` returned rows)."""
    me = topology.switches[my_uid]
    host_ports = set(my_host_ports if my_host_ports is not None else me.host_ports)
    in_ports = list(range(0, n_ports + 1))
    index = topology.index()
    entries = {}

    def entry_for(ports, broadcast=False):
        if broadcast and not ports:
            return DISCARD_ENTRY
        return ForwardingEntry(ports, broadcast)

    nbr_ports = index.nbrs[my_uid]
    arrives_up = [i not in nbr_ports or index.up_end[(my_uid, i)] for i in in_ports]
    for dest_uid in topology.switches:
        number = topology.numbers.get(dest_uid)
        if number is None:
            continue
        if dest_uid == my_uid:
            for q in range(0, n_ports + 1):
                address = make_short_address(number, q)
                if q == CONTROL_PROCESSOR_PORT:
                    entry = entry_for((CONTROL_PROCESSOR_PORT,))
                elif q in host_ports:
                    entry = entry_for((q,))
                else:
                    entry = DISCARD_ENTRY
                for i in in_ports:
                    entries[(i, address)] = entry
            continue
        ports_up, ports_down = index.next_hops(my_uid, dest_uid)
        entry_up = entry_for(ports_up) if ports_up else DISCARD_ENTRY
        entry_down = entry_for(ports_down) if ports_down else DISCARD_ENTRY
        for q in range(0, n_ports + 1):
            address = make_short_address(number, q)
            for i, is_up in zip(in_ports, arrives_up):
                entries[(i, address)] = entry_up if is_up else entry_down

    children = index.children[my_uid]
    is_root = topology.root == my_uid
    parent_port = me.parent_port

    def flood_set(address):
        ports = set(children)
        if address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_HOSTS):
            ports |= host_ports
        if address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_SWITCHES):
            ports.add(CONTROL_PROCESSOR_PORT)
        return tuple(sorted(ports))

    up_sources = {CONTROL_PROCESSOR_PORT} | host_ports | set(children)
    for address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_SWITCHES, ADDR_BROADCAST_HOSTS):
        down = entry_for(flood_set(address), broadcast=True)
        for i in in_ports:
            if i in up_sources:
                if is_root:
                    entries[(i, address)] = down
                else:
                    entries[(i, address)] = entry_for((parent_port,), broadcast=True)
            elif i == parent_port:
                entries[(i, address)] = down
            else:
                entries[(i, address)] = DISCARD_ENTRY
    return entries


def neighbors(topology, uid):
    result = {}
    for link in topology.links:
        if link.is_loop:
            continue
        if link.a.uid not in topology.switches or link.b.uid not in topology.switches:
            continue  # the index's documented behaviour: foreign UIDs are skipped
        if link.a.uid == uid:
            result[link.a.port] = link.b
        elif link.b.uid == uid:
            result[link.b.port] = link.a
    return result


def children_ports(topology, uid):
    ports = []
    for other in topology.switches.values():
        if other.parent_uid != uid or other.parent_port is None:
            continue
        for link in topology.links:
            if link.is_loop or {link.a.uid, link.b.uid} != {other.uid, uid}:
                continue
            if link.endpoint_at(other.uid).port == other.parent_port:
                ports.append(link.endpoint_at(uid).port)
                break
    return tuple(sorted(ports))


def link_direction(topology, link):
    """The link's up end: closer to the root, ties by lower UID."""
    level_a = topology.level(link.a.uid)
    level_b = topology.level(link.b.uid)
    if level_a != level_b:
        return link.a if level_a < level_b else link.b
    return link.a if link.a.uid < link.b.uid else link.b


def goes_up(topology, uid, out_port):
    far = neighbors(topology, uid)[out_port]
    return link_direction(topology, NetLink(PortRef(uid, out_port), far)) == far


def arrival_phase(topology, uid, in_port):
    if in_port not in neighbors(topology, uid):
        return UP
    return DOWN if goes_up(topology, uid, in_port) else UP


def legal_distances(topology, dest):
    """Bellman-Ford over (switch, phase) states; inf where no legal route."""
    hops = [
        (uid, far.uid, goes_up(topology, uid, port))
        for uid in topology.switches
        for port, far in neighbors(topology, uid).items()
    ]
    inf = float("inf")
    dist = {(uid, phase): inf for uid in topology.switches for phase in (UP, DOWN)}
    dist[(dest, UP)] = dist[(dest, DOWN)] = 0
    for _ in range(2 * len(topology.switches)):
        for uid, far, going_up in hops:
            if going_up:
                dist[(uid, UP)] = min(dist[(uid, UP)], dist[(far, UP)] + 1)
            else:
                for phase in (UP, DOWN):
                    dist[(uid, phase)] = min(dist[(uid, phase)], dist[(far, DOWN)] + 1)
    return dist


def next_hop_ports(topology, uid, phase, dest, dist):
    here = dist[(uid, phase)]
    if here == float("inf"):
        return ()
    ports = []
    for port, far in neighbors(topology, uid).items():
        going_up = goes_up(topology, uid, port)
        if phase == DOWN and going_up:
            continue  # never up after down
        if dist[(far.uid, UP if going_up else DOWN)] + 1 == here:
            ports.append(port)
    return tuple(sorted(ports))


def trace_delivery(topology, entries_by_uid, start_uid, start_port, address):
    delivered, seen = set(), set()
    frontier = deque([(start_uid, start_port)])
    while frontier:
        uid, in_port = frontier.popleft()
        if (uid, in_port) in seen:
            continue
        seen.add((uid, in_port))
        entry = entries_by_uid.get(uid, {}).get((in_port, address))
        if entry is None or entry.is_discard:
            continue
        nbrs = neighbors(topology, uid)
        for out_port in entry.ports:
            if out_port != CONTROL_PROCESSOR_PORT and out_port in nbrs:
                frontier.append((nbrs[out_port].uid, nbrs[out_port].port))
            else:
                delivered.add((uid, out_port))
    return delivered


def check_no_down_to_up(topology, entries_by_uid):
    for uid, entries in entries_by_uid.items():
        nbrs = neighbors(topology, uid)
        for (in_port, address), entry in entries.items():
            if arrival_phase(topology, uid, in_port) != DOWN:
                continue
            for out_port in entry.ports:
                if out_port in nbrs and goes_up(topology, uid, out_port):
                    raise AssertionError(
                        f"{uid}: entry (in={in_port}, addr={address:#x}) forwards "
                        f"a descended packet up via port {out_port}"
                    )


def channel_dependency_edges(topology, entries_by_uid):
    """(nodes, edges) of the channel dependency graph, one visit per key."""
    incoming, outgoing, nodes = {}, {}, set()
    for link in topology.links:
        if link.is_loop:
            continue
        for src, dst in ((link.a, link.b), (link.b, link.a)):
            nodes.add((src, dst))
            incoming[(dst.uid, dst.port)] = (src, dst)
            outgoing[(src.uid, src.port)] = (src, dst)
    edges = set()
    for uid, entries in entries_by_uid.items():
        for (in_port, _address), entry in entries.items():
            upstream = incoming.get((uid, in_port))
            if upstream is None:
                continue
            for out_port in entry.ports:
                downstream = outgoing.get((uid, out_port))
                if downstream is not None:
                    edges.add((upstream, downstream))
    return nodes, edges


def has_cycle(topology, entries_by_uid):
    nodes, edges = channel_dependency_edges(topology, entries_by_uid)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return not nx.is_directed_acyclic_graph(graph)


def links_used(topology, entries_by_uid):
    used = set()
    for uid, entries in entries_by_uid.items():
        nbrs = neighbors(topology, uid)
        for entry in entries.values():
            for out_port in entry.ports:
                if out_port in nbrs:
                    used.add(NetLink(PortRef(uid, out_port), nbrs[out_port]))
    return used
