"""``TopologyIndex``: equal to the naive link scans, and built once.

The index is the only place ``src/`` computes neighbours, link direction,
child ports and legal distances.  Its oracle is ``tests/naive_routing.py``
(a scan over every link per question), on random connected topologies with
*random* spanning trees -- not just the breadth-first tree the protocol
converges to -- so level ties, cross links spanning several levels and
parallel cables all occur.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import (
    all_pairs_reachable,
    channel_dependency_graph,
    check_no_down_to_up,
    links_used,
    quiescent_checks,
)
from repro.constants import CONTROL_PROCESSOR_PORT, PORTS_PER_SWITCH, SEC
from repro.core import reconfig
from repro.core.routing import DOWN, UP, build_forwarding_entries
from repro.core.topo import NetLink, PortRef, SwitchRecord, TopologyIndex, TopologyMap
from repro.net.forwarding import ForwardingEntry
from repro.network import Network
from repro.topology import expected_tree, resolve_topology, ring
from repro.types import Uid, make_short_address
from tests import naive_routing as naive
from tests.checkers import arrival_phase, link_direction
from tests.test_properties import connected_topologies


def random_tree_map(spec, rng):
    """A TopologyMap over ``spec`` whose root and spanning tree are drawn
    by ``rng`` (a random-order graph search: neither BFS nor DFS)."""
    adjacency = {i: [] for i in range(spec.n_switches)}
    links = set()
    for a, pa, b, pb in spec.cables:
        adjacency[a].append((b, pb))
        adjacency[b].append((a, pa))
        links.add(NetLink(PortRef(spec.uids[a], pa), PortRef(spec.uids[b], pb)))
    root = rng.randrange(spec.n_switches)
    records = {root: SwitchRecord(spec.uids[root], 0, None, None)}
    frontier = [root]
    while frontier:
        i = frontier.pop(rng.randrange(len(frontier)))
        rng.shuffle(adjacency[i])
        for j, port_at_j in adjacency[i]:
            if j not in records:
                records[j] = SwitchRecord(
                    spec.uids[j], records[i].level + 1, port_at_j, spec.uids[i]
                )
                frontier.append(j)
    return TopologyMap(
        root=spec.uids[root],
        switches={spec.uids[i]: records[i] for i in range(spec.n_switches)},
        links=links,
        numbers={uid: n + 1 for n, uid in enumerate(spec.uids)},
    )


@st.composite
def random_tree_maps(draw, max_switches=10):
    spec = draw(connected_topologies(max_switches=max_switches))
    return random_tree_map(spec, draw(st.randoms(use_true_random=False)))


@settings(max_examples=60, deadline=None)
@given(random_tree_maps())
def test_index_views_equal_the_naive_link_scans(topo):
    topo.validate()
    index = topo.index()
    for uid in topo.switches:
        assert topo.neighbors(uid) == naive.neighbors(topo, uid)
        assert topo.children_ports(uid) == naive.children_ports(topo, uid)
        for port in range(PORTS_PER_SWITCH + 1):
            assert arrival_phase(topo, uid, port) == naive.arrival_phase(topo, uid, port)
    for link in topo.links:
        up = naive.link_direction(topo, link)
        assert link_direction(topo, link) == up
        assert index.up_end[(link.a.uid, link.a.port)] == (up == link.a)
        assert index.up_end[(link.b.uid, link.b.port)] == (up == link.b)


@settings(max_examples=40, deadline=None)
@given(random_tree_maps(max_switches=8))
def test_index_distances_and_next_hops_equal_naive_bellman_ford(topo):
    index = topo.index()
    for dest in topo.switches:
        dist = naive.legal_distances(topo, dest)
        for uid in topo.switches:
            for phase in (UP, DOWN):
                expected = dist[(uid, phase)]
                got = index.distance(uid, dest, phase)
                assert got == (-1 if expected == float("inf") else expected)
            assert index.next_hops(uid, dest) == (
                naive.next_hop_ports(topo, uid, UP, dest, dist),
                naive.next_hop_ports(topo, uid, DOWN, dest, dist),
            )


@settings(max_examples=60, deadline=None)
@given(random_tree_maps(max_switches=8), st.randoms(use_true_random=False))
def test_row_builder_equals_the_cell_by_cell_builder(topo, rng):
    """``build_forwarding_entries`` returns rows; expanded to cells they are
    the table the cell-by-cell builder writes, key order included -- also
    with host ports, an un-numbered switch, a loop link and a link naming a
    foreign UID in the map."""
    uids = sorted(topo.switches)
    for uid in uids:
        free = sorted(set(range(1, PORTS_PER_SWITCH + 1)) - set(topo.neighbors(uid)))
        hosts = frozenset(rng.sample(free, rng.randint(0, min(3, len(free)))))
        topo.switches[uid] = replace(topo.switches[uid], host_ports=hosts)
    if rng.random() < 0.5:
        del topo.numbers[rng.choice(uids)]
    if rng.random() < 0.5:
        topo.links.add(NetLink(PortRef(uids[0], 11), PortRef(uids[0], 12)))
    if rng.random() < 0.5:
        topo.links.add(NetLink(PortRef(uids[-1], 12), PortRef(Uid(0xDEAD), 1)))
    for uid in uids:
        override = rng.choice([None, frozenset(rng.sample(range(1, PORTS_PER_SWITCH + 1), 2))])
        rows = build_forwarding_entries(topo, uid, override)
        expected = naive.build_forwarding_entries(topo, uid, override)
        assert naive.cells(rows) == expected
        assert list(naive.cells(rows)) == list(expected)
        assert all(len(row) == PORTS_PER_SWITCH + 1 for row in rows.values())
        for dest, number in topo.numbers.items():
            if dest != uid:
                base = make_short_address(number, 0)
                assert all(rows[base + q] is rows[base] for q in range(PORTS_PER_SWITCH + 1))


def outcome(check, *args):
    try:
        return check(*args)
    except AssertionError as error:
        return str(error)


@settings(max_examples=30, deadline=None)
@given(random_tree_maps(max_switches=6), st.randoms(use_true_random=False))
def test_row_deduping_sweeps_equal_the_per_key_sweeps(topo, rng):
    """Correct tables, then the same tables with one key rewritten to a
    random vector of link ports: every sweep must say exactly what its per-key
    reference says (verdict, message text, graph, link set)."""
    entries = {uid: build_forwarding_entries(topo, uid) for uid in topo.switches}
    for corrupt in (False, True):
        if corrupt:
            # between link ports, where a wrong vector breaks the rules
            uid = rng.choice(sorted(topo.switches))
            link_ports = sorted(topo.neighbors(uid))
            in_port, address = rng.choice(
                sorted(k for k in naive.cells(entries[uid]) if k[0] in link_ports)
            )
            ports = rng.sample(link_ports + [CONTROL_PROCESSOR_PORT], rng.randint(1, 2))
            row = list(entries[uid][address])  # shared by 13 addresses: copy, as set_entry does
            row[in_port] = ForwardingEntry(tuple(ports))
            entries[uid][address] = tuple(row)
        per_key = naive.cells_by_uid(entries)
        assert outcome(check_no_down_to_up, topo, entries) == outcome(
            naive.check_no_down_to_up, topo, per_key
        )
        assert links_used(topo, entries) == naive.links_used(topo, per_key)
        graph = channel_dependency_graph(topo, entries)
        nodes, edges = naive.channel_dependency_edges(topo, per_key)
        assert set(graph) == nodes
        assert {(a, b) for a, successors in graph.items() for b in successors} == edges
        reachable = all_pairs_reachable(topo, entries)
        for (src, dst), ok in reachable.items():
            address = make_short_address(topo.numbers[dst], CONTROL_PROCESSOR_PORT)
            delivered = naive.trace_delivery(topo, per_key, src, CONTROL_PROCESSOR_PORT, address)
            assert ok == ((dst, CONTROL_PROCESSOR_PORT) in delivered)
        assert len(reachable) == len(topo.switches) ** 2


# -- what the index leaves out, and when it rebuilds -----------------------------------


def test_links_naming_a_foreign_uid_or_looping_are_skipped():
    topo = expected_tree(ring(4))
    inside = sorted(topo.switches)[0]
    foreign = NetLink(PortRef(inside, 11), PortRef(Uid(0xDEAD), 1))
    loop = NetLink(PortRef(inside, 9), PortRef(inside, 10))
    before = dict(topo.neighbors(inside))
    topo.links |= {foreign, loop}
    index = topo.index()
    assert topo.neighbors(inside) == before
    assert Uid(0xDEAD) not in index.nbrs
    assert topo.neighbors(Uid(0xDEAD)) == {}
    assert topo.children_ports(Uid(0xDEAD)) == ()
    assert link_direction(topo, foreign) is None
    assert link_direction(topo, loop) is None
    assert arrival_phase(topo, inside, 11) == UP
    # the rest of the map is still routable
    entries = {uid: build_forwarding_entries(topo, uid) for uid in topo.switches}
    assert all(all_pairs_reachable(topo, entries).values())
    assert len(channel_dependency_graph(topo, entries)) == 2 * (len(topo.links) - 2)


def test_index_follows_in_place_mutation_and_equal_maps_build_their_own():
    topo = expected_tree(ring(5))
    first = topo.index()
    assert topo.index() is first
    tree = {
        NetLink(PortRef(uid, rec.parent_port), topo.neighbors(uid)[rec.parent_port])
        for uid, rec in topo.switches.items()
        if rec.parent_port is not None
    }
    (removed,) = topo.links - tree  # the ring's one non-tree link
    topo.links.discard(removed)
    second = topo.index()
    assert second is not first
    assert removed.a.port not in topo.neighbors(removed.a.uid)
    twin = TopologyMap(topo.root, dict(topo.switches), set(topo.links), dict(topo.numbers))
    assert twin == topo
    assert twin.index() is not second
    assert twin.index().nbrs == second.nbrs


# -- deterministic cost guard: builds are counted, not timed ---------------------------


@pytest.fixture
def index_builds(monkeypatch):
    """Every TopologyIndex construction, as the map it was built for."""
    built = []
    construct = TopologyIndex.__init__

    def counting(self, topology, key):
        built.append(topology)
        construct(self, topology, key)

    monkeypatch.setattr(TopologyIndex, "__init__", counting)
    return built


def test_src_lan_boot_builds_one_index_and_30_bfs_sweeps_per_epoch(index_builds, monkeypatch):
    route_builds, sweeps = [], []
    build, bfs = reconfig.build_forwarding_entries, TopologyIndex._bfs

    def counted_build(topology, *args, **kwargs):
        route_builds.append(topology)
        return build(topology, *args, **kwargs)

    def counted_bfs(self, dest):
        sweeps.append(self)
        return bfs(self, dest)

    monkeypatch.setattr(reconfig, "build_forwarding_entries", counted_build)
    monkeypatch.setattr(TopologyIndex, "_bfs", counted_bfs)
    net = Network(resolve_topology("src-lan-30"), seed=1)
    assert net.run_until_converged(timeout_ns=120 * SEC)

    # no map is ever indexed twice, whatever the number of epochs
    assert len({id(t) for t in index_builds}) == len(index_builds)
    # the final epoch: one shared map, 30 table builds, 1 index, 30 sweeps
    final = net.autopilots[0].engine.topology
    assert all(ap.engine.topology is final for ap in net.autopilots)
    assert sum(t is final for t in route_builds) == 30
    assert sum(t is final for t in index_builds) == 1
    assert sum(index is final.index() for index in sweeps) == 30


def test_quiescent_checks_build_one_index_per_distinct_topology(index_builds):
    net = Network(resolve_topology("src-lan-30"), seed=1)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    topology = net.autopilots[0].engine.topology
    del index_builds[:]
    assert quiescent_checks(net).passed
    assert index_builds == []  # the boot's index serves the sweeps
    topology._index = None
    assert quiescent_checks(net).passed
    assert quiescent_checks(net).passed
    assert index_builds == [topology]
