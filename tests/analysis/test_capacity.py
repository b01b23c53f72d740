"""Topology capacity analysis (the section 7 characterization tool of
``benchmarks/bench_topology_characteristics.py``)."""

import pytest

from benchmarks.bench_topology_characteristics import analyze_capacity
from benchmarks.rigs.routing_ablation import tree_only_topology
from repro.topology import expected_tree, line, ring, torus


def test_line_loads_concentrate_in_middle():
    topo = expected_tree(line(4))
    report = analyze_capacity(topo)
    loads = sorted(report.link_loads.values())
    # the middle link of a 4-line carries 2x2=4 of the 12 ordered pairs...
    assert loads[-1] > loads[0]
    assert report.max_path_length == 3
    assert report.n_links == 3


def test_flow_conservation():
    """Total link traversals equal the sum of all pairs' path lengths."""
    topo = expected_tree(torus(3, 3))
    report = analyze_capacity(topo)
    pairs = report.n_switches * (report.n_switches - 1)
    total = sum(report.link_loads.values())
    assert total == pytest.approx(report.mean_path_length * pairs, rel=1e-6)


def test_torus_beats_tree_on_bottleneck():
    """Cross links relieve the root: the full torus has a lower
    bottleneck load (higher capacity) than its spanning tree alone."""
    topo = expected_tree(torus(3, 4))
    tree = tree_only_topology(topo)
    full = analyze_capacity(topo)
    tree_only = analyze_capacity(tree)
    assert full.bottleneck_load < tree_only.bottleneck_load
    assert full.capacity_per_flow > tree_only.capacity_per_flow
    assert full.mean_path_length <= tree_only.mean_path_length


def test_root_share_smaller_with_cross_links():
    topo = expected_tree(torus(3, 4))
    tree = tree_only_topology(topo)
    assert analyze_capacity(topo).root_share < analyze_capacity(tree).root_share


def test_ring_symmetric_paths():
    topo = expected_tree(ring(6))
    report = analyze_capacity(topo)
    assert report.max_path_length <= 5  # legal routes may exceed shortest
    assert report.mean_path_length >= 1.0


def test_every_link_carries_some_flow():
    """Consistent with the 'all links used' property (section 4.2)."""
    topo = expected_tree(torus(3, 4))
    report = analyze_capacity(topo)
    assert all(load > 0 for load in report.link_loads.values())
