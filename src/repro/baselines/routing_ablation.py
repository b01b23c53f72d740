"""Routing ablations for E11 (section 3.6 / 6.6.4).

Up*/down* is compared against the two obvious alternatives:

* **tree-only routing** (802.1-bridge style): restrict every route to
  spanning-tree links.  Deadlock-free, but cross links carry nothing, so
  capacity concentrates at the root.
* **unrestricted shortest-path routing**: minimum-hop over all links with
  no direction rule.  Uses every link, but its channel-dependency graph
  generally has cycles, i.e. it can deadlock under Autonet's no-discard
  flow control.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Tuple

from repro.constants import CONTROL_PROCESSOR_PORT, PORTS_PER_SWITCH
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry
from repro.types import Uid, make_short_address


def tree_only_topology(topology: TopologyMap) -> TopologyMap:
    """A copy of the topology containing only spanning-tree links."""
    nbrs = topology.index().nbrs
    tree_links = set()
    for uid, record in topology.switches.items():
        parent_end = nbrs[uid].get(record.parent_port)
        if parent_end is not None and parent_end.uid == record.parent_uid:
            tree_links.add(NetLink(PortRef(uid, record.parent_port), parent_end))
    return TopologyMap(
        root=topology.root,
        switches=dict(topology.switches),
        links=tree_links,
        numbers=dict(topology.numbers),
    )


def build_shortest_path_entries(
    topology: TopologyMap,
    my_uid: Uid,
    my_host_ports: Optional[FrozenSet[int]] = None,
    n_ports: int = PORTS_PER_SWITCH,
) -> Dict[Tuple[int, int], ForwardingEntry]:
    """Minimum-hop forwarding with no up*/down* restriction.

    Entries are independent of the receiving port (any input may use any
    shortest-path output), which is what admits circular channel
    dependencies.
    """
    me = topology.switches[my_uid]
    host_ports = set(my_host_ports if my_host_ports is not None else me.host_ports)

    # plain BFS distances per destination
    adjacency: Dict[Uid, Dict[int, Uid]] = {
        uid: {p: ref.uid for p, ref in ports.items()}
        for uid, ports in topology.index().nbrs.items()
    }

    entries: Dict[Tuple[int, int], ForwardingEntry] = {}
    in_ports = list(range(0, n_ports + 1))
    for dest_uid in topology.switches:
        number = topology.numbers.get(dest_uid)
        if number is None:
            continue
        if dest_uid == my_uid:
            for q in range(0, n_ports + 1):
                address = make_short_address(number, q)
                if q == CONTROL_PROCESSOR_PORT:
                    entry = ForwardingEntry((CONTROL_PROCESSOR_PORT,))
                elif q in host_ports:
                    entry = ForwardingEntry((q,))
                else:
                    entry = DISCARD_ENTRY
                for i in in_ports:
                    entries[(i, address)] = entry
            continue
        dist = _bfs_distance(adjacency, dest_uid)
        here = dist.get(my_uid, float("inf"))
        ports = tuple(
            sorted(
                p
                for p, far_uid in adjacency[my_uid].items()
                if dist.get(far_uid, float("inf")) + 1 == here
            )
        )
        entry = ForwardingEntry(ports) if ports else DISCARD_ENTRY
        for q in range(0, n_ports + 1):
            address = make_short_address(number, q)
            for i in in_ports:
                entries[(i, address)] = entry
    return entries


def _bfs_distance(adjacency: Dict[Uid, Dict[int, Uid]], dest: Uid) -> Dict[Uid, float]:
    dist: Dict[Uid, float] = {dest: 0.0}
    frontier = deque([dest])
    while frontier:
        node = frontier.popleft()
        for far in adjacency[node].values():
            if far not in dist:
                dist[far] = dist[node] + 1
                frontier.append(far)
    return dist
