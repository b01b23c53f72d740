"""E17 -- Performance characteristics of topologies and routings (§7).

Paper (closing future work): "understanding the performance
characteristics of different topologies and different routing
algorithms" and "the number of switches and the pattern of the
switch-to-switch links determine network capacity, reliability, and
cost."

Measured here: for several 12-30 switch installations, the analytic
characteristics (path length, bottleneck load under uniform traffic,
root concentration), single-failure robustness, and the measured
reconfiguration time -- the trade table an installation guide needs.
:func:`analyze_capacity` quantifies a routed configuration:

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

from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from benchmarks.bench_util import Rig, Row, current_seed, fmt_ms, measured_cut, report
from benchmarks.rigs.routing_ablation import tree_only_topology
from repro.core.routing import DOWN, UP
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.topology import dcell, expected_tree, fat_tree, random_regular, torus, tree
from repro.topology.graph import components, cut_points_and_bridges, spec_graph
from repro.topology.src_lan import src_service_lan
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


def analyze_capacity(topology: TopologyMap) -> CapacityReport:
    """Characterize the routed topology under uniform all-pairs traffic:
    flow is split equally over the up*/down* minimum-hop alternatives the
    tables implement, mirroring the hardware's pick-any-free-port
    behaviour in the long-run average."""
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


def survives_single_failures(spec) -> bool:
    graph = spec_graph(spec)
    return len(components(graph)) == 1 and cut_points_and_bridges(graph) == ([], [])


@pytest.mark.benchmark(group="E17")
def test_topology_trade_table(benchmark):
    specs = [
        torus(3, 4),
        tree(depth=3, fanout=2),           # 15 switches, no cross links
        random_regular(12, degree=4, seed=current_seed()),
        fat_tree(4),                       # 20 switches, three-tier data center
        dcell(3, level=1),                 # 16 switches, server-centric cells
        src_service_lan(),
    ]

    def run():
        rows = []
        for spec in specs:
            topo = expected_tree(spec)
            cap = analyze_capacity(topo)
            rows.append(
                (
                    spec.name,
                    cap.n_switches,
                    f"{cap.mean_path_length:.2f}",
                    f"{cap.capacity_per_flow:.3f}",
                    f"{cap.root_share * 100:.0f}%",
                    survives_single_failures(spec),
                    measured_cut(Rig(Row(spec)).net).final_epoch_ns,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E17_topologies",
        "E17: topology characteristics under up*/down* routing",
        ["topology", "switches", "mean path", "capacity/flow",
         "root share", "survives 1 failure", "reconfig (ms)"],
        [list(r[:-1]) + [fmt_ms(r[-1])] for r in rows],
        notes=(
            "capacity/flow = sustainable per-pair rate (link-bandwidth units)\n"
            "under uniform traffic; root share = fraction of traversals on\n"
            "root-attached links (up*/down* concentrates load at the root)"
        ),
    )
    by_name = {r[0]: r for r in rows}
    # a tree cannot survive single failures; the meshes can
    assert not by_name["tree-d3f2"][5]
    assert by_name["src-lan-30"][5]
    # both data-center families are biconnected by construction
    assert by_name["fat-tree-4"][5]
    assert by_name["dcell-3l1"][5]
    # the tree funnels everything through the root
    assert float(by_name["tree-d3f2"][4].rstrip("%")) > float(
        by_name["src-lan-30"][4].rstrip("%")
    )


@pytest.mark.benchmark(group="E17")
def test_routing_capacity_comparison(benchmark):
    """Up*/down* vs tree-only routing on the SRC LAN: the cross links
    roughly double the uniform-traffic capacity."""

    def run():
        topo = expected_tree(src_service_lan())
        full = analyze_capacity(topo)
        tree_only = analyze_capacity(tree_only_topology(topo))
        return full, tree_only

    full, tree_only = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E17_routing_capacity",
        "E17: SRC LAN uniform-traffic capacity by routing",
        ["routing", "links used", "mean path", "capacity/flow", "root share"],
        [
            ["up*/down* (all links)", full.n_links, f"{full.mean_path_length:.2f}",
             f"{full.capacity_per_flow:.3f}", f"{full.root_share * 100:.0f}%"],
            ["spanning tree only", tree_only.n_links,
             f"{tree_only.mean_path_length:.2f}",
             f"{tree_only.capacity_per_flow:.3f}",
             f"{tree_only.root_share * 100:.0f}%"],
        ],
    )
    assert full.capacity_per_flow > 1.5 * tree_only.capacity_per_flow
