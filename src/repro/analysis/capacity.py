"""Topology performance characteristics (section 7 future work).

"The number of switches and the pattern of the switch-to-switch and
host-to-switch links determine network capacity, reliability, and cost"
-- and the paper closes wanting to "understand the performance
characteristics of different topologies and different routing
algorithms."  These analyzers quantify a configuration:

* legal-route path-length statistics (latency proxy),
* expected per-link load under uniform all-pairs traffic with equal
  splitting over the minimum-hop legal routes (the multipath tables
  actually built), whose maximum is the **bottleneck load**: the inverse
  of the uniform-traffic capacity per flow,
* root-congestion factor: how much of all traffic crosses the spanning
  tree root's links (up*/down* concentrates load near the root; one of
  its known costs, visible against tree-only routing and across
  topologies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.routing import DOWN, UP
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.types import Uid


@dataclass
class CapacityReport:
    """Uniform-traffic characteristics of one routed configuration."""

    n_switches: int
    n_links: int
    mean_path_length: float
    max_path_length: int
    #: expected traversals per link for one unit of traffic between every
    #: ordered switch pair
    link_loads: Dict[NetLink, float]
    #: the most loaded link's share (bottleneck)
    bottleneck_load: float
    #: fraction of all link traversals that use a root-attached link
    root_share: float

    @property
    def capacity_per_flow(self) -> float:
        """Sustainable per-pair injection rate (in link-bandwidth units)
        under uniform traffic: the bottleneck link saturates first."""
        return 1.0 / self.bottleneck_load if self.bottleneck_load else float("inf")


def analyze_capacity(
    topology: TopologyMap,
    next_hops: Optional[Callable[[Uid, int, Uid], Tuple[int, ...]]] = None,
) -> CapacityReport:
    """Characterize the routed topology under uniform all-pairs traffic.

    ``next_hops(uid, phase, dest)`` overrides the route choice (defaults
    to the up*/down* minimum-hop multipath the tables implement); flow is
    split equally over the alternatives, mirroring the hardware's
    pick-any-free-port behaviour in the long-run average.
    """
    index = topology.index()
    uids = sorted(topology.switches)
    link_loads: Dict[NetLink, float] = {link: 0.0 for link in topology.links}
    total_length = 0.0
    max_length = 0
    pairs = 0

    for dest in uids:
        for src in uids:
            if src == dest:
                continue
            pairs += 1
            length = index.distance(src, dest, UP)
            total_length += length
            max_length = max(max_length, length)
            # push one unit of flow from src toward dest, splitting
            # equally at every branch point
            flows: Dict[Tuple[Uid, int], float] = {(src, UP): 1.0}
            guard = 0
            while flows and guard < 10 * len(uids):
                guard += 1
                next_flows: Dict[Tuple[Uid, int], float] = {}
                for (uid, phase), amount in flows.items():
                    if uid == dest:
                        continue
                    if next_hops is not None:
                        ports = next_hops(uid, phase, dest)
                    else:
                        ports = index.next_hops(uid, dest)[phase]
                    if not ports:
                        continue
                    share = amount / len(ports)
                    neighbors = index.nbrs[uid]
                    for port in ports:
                        far = neighbors[port]
                        link = NetLink(PortRef(uid, port), far)
                        link_loads[link] = link_loads.get(link, 0.0) + share
                        climbs = index.up_end[(far.uid, far.port)]
                        key = (far.uid, UP if climbs and phase == UP else DOWN)
                        next_flows[key] = next_flows.get(key, 0.0) + share
                flows = next_flows

    traversals = sum(link_loads.values())
    root_links = {
        link for link in topology.links
        if topology.root in (link.a.uid, link.b.uid)
    }
    root_traffic = sum(link_loads[ln] for ln in root_links if ln in link_loads)

    return CapacityReport(
        n_switches=len(uids),
        n_links=len(topology.links),
        mean_path_length=total_length / pairs if pairs else 0.0,
        max_path_length=max_length,
        link_loads=link_loads,
        bottleneck_load=max(link_loads.values()) / pairs if link_loads and pairs else 0.0,
        root_share=root_traffic / traversals if traversals else 0.0,
    )
