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

from typing import Dict, FrozenSet, Optional

from repro.constants import PORTS_PER_SWITCH
from repro.core.routing import own_rows
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry, Row
from repro.topology.graph import distances
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
) -> Dict[int, Row]:
    """Minimum-hop forwarding with no up*/down* restriction.

    A row holds one entry whatever the receiving port (any input may use
    any shortest-path output), which is what admits circular channel
    dependencies.
    """
    me = topology.switches[my_uid]
    host_ports = set(my_host_ports if my_host_ports is not None else me.host_ports)

    # plain BFS distances per destination
    nbrs = topology.index().nbrs
    graph = {uid: [far.uid for far in ports.values()] for uid, ports in nbrs.items()}

    rows: Dict[int, Row] = {}
    for dest_uid in topology.switches:
        number = topology.numbers.get(dest_uid)
        if number is None:
            continue
        if dest_uid == my_uid:
            rows.update(own_rows(number, host_ports))
            continue
        dist = distances(graph, dest_uid)
        here = dist.get(my_uid, float("inf"))
        ports = tuple(
            sorted(
                p
                for p, far in nbrs[my_uid].items()
                if dist.get(far.uid, float("inf")) + 1 == here
            )
        )
        row = (ForwardingEntry(ports) if ports else DISCARD_ENTRY,) * (PORTS_PER_SWITCH + 1)
        for q in range(0, PORTS_PER_SWITCH + 1):
            rows[make_short_address(number, q)] = row
    return rows
