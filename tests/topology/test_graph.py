"""``repro.topology.graph`` against networkx, the oracle it replaced.

``src/repro`` asks five questions of a graph -- components, cut points,
bridges, diameter, acyclicity -- and answers them itself; networkx stays
under ``tests/`` to say whether the answers are right.  The one place
they may differ is deliberate: the planner's audit used a simple graph,
which merges parallel trunks, while a cable of a doubled trunk is no
bridge.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import channel_dependency_graph, is_acyclic
from benchmarks.rigs.routing_ablation import build_shortest_path_entries, tree_only_topology
from repro.core.routing import build_forwarding_entries
from repro.topology import expected_tree, line
from repro.topology.graph import (
    adjacency,
    components,
    cut_points_and_bridges,
    diameter,
    distances,
    spec_graph,
)
from repro.topology.planner import InstallationPlan
from tests.test_properties import connected_topologies


@st.composite
def cable_lists(draw):
    """Random multigraphs: parallel cables, loops, isolated switches, and
    the degenerate sizes 0-2 all occur."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=2 * n))


@settings(max_examples=300, deadline=None)
@given(cable_lists())
def test_components_cut_points_bridges_and_diameter_equal_networkx(case):
    n, cables = case
    graph = adjacency(range(n), cables)
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(n))
    multi.add_edges_from((a, b) for a, b in cables if a != b)
    simple = nx.Graph(multi)

    assert components(graph) == sorted(
        (frozenset(c) for c in nx.connected_components(simple)), key=min
    )
    cuts, bridges = cut_points_and_bridges(graph)
    assert cuts == sorted(nx.articulation_points(simple))
    doubled = {(min(a, b), max(a, b)) for a, b in multi.edges() if multi.number_of_edges(a, b) > 1}
    assert bridges == sorted(
        {(min(a, b), max(a, b)) for a, b in nx.bridges(simple)} - doubled
    )
    if n and nx.is_connected(simple):
        assert diameter(graph) == nx.diameter(simple)
        assert distances(graph, 0) == nx.single_source_shortest_path_length(simple, 0)
    elif n:
        with pytest.raises(ValueError):
            diameter(graph)


def audit(spec):
    return InstallationPlan(spec=spec).verify()


def test_planner_audit_counts_parallel_trunks():
    """A simple graph merges a doubled trunk into one edge and calls it a
    bridge; no single cable failure disconnects this installation."""
    assert audit(line(3)) == [
        "single switch failures disconnect: [1]",
        "single trunk failures disconnect: [(0, 1), (1, 2)]",
    ]
    doubled = line(3)
    doubled.cables += [(0, 5, 1, 5), (1, 6, 2, 5)]
    assert audit(doubled) == ["single switch failures disconnect: [1]"]
    looped = line(3)
    looped.cables.append((1, 7, 1, 8))  # a cable from a switch to itself connects nothing
    assert audit(looped) == audit(line(3))
    assert spec_graph(looped) == spec_graph(line(3))


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return {}
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    graph = {i: set() for i in range(n)}
    for a, b in edges:
        graph[a].add(b)
    return graph


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_is_acyclic_equals_networkx_on_random_digraphs(graph):
    assert is_acyclic(graph) == nx.is_directed_acyclic_graph(nx.DiGraph(graph))


@settings(max_examples=40, deadline=None)
@given(connected_topologies(max_switches=8))
def test_is_acyclic_equals_networkx_on_channel_graphs(spec):
    """Up*/down* and tree-only tables (acyclic) and unrestricted
    shortest-path tables (cyclic on most topologies with a loop)."""
    topo = expected_tree(spec)
    tree = tree_only_topology(topo)
    verdicts = []
    for topology, build in (
        (topo, build_forwarding_entries),
        (tree, build_forwarding_entries),
        (topo, build_shortest_path_entries),
    ):
        rows = {uid: build(topology, uid) for uid in topology.switches}
        graph = channel_dependency_graph(topo, rows)
        oracle = nx.DiGraph(graph)
        assert set(oracle.nodes) == set(graph)
        assert oracle.number_of_edges() == sum(len(successors) for successors in graph.values())
        verdicts.append(is_acyclic(graph))
        assert verdicts[-1] == nx.is_directed_acyclic_graph(oracle)
    assert verdicts[:2] == [True, True]
