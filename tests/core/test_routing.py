"""Up*/down* routing: directions, legality, reachability, deadlock freedom."""

import pytest

from repro.analysis.invariants import (
    all_pairs_reachable,
    channel_dependency_graph,
    check_no_down_to_up,
    deliveries,
    is_acyclic,
    links_used,
)
from repro.constants import (
    ADDR_BROADCAST_ALL,
    ADDR_BROADCAST_HOSTS,
    ADDR_BROADCAST_SWITCHES,
    CONTROL_PROCESSOR_PORT,
)
from repro.core.routing import DOWN, UP, build_forwarding_entries
from repro.topology import expected_tree, line, mesh, random_regular, ring, torus
from repro.types import make_short_address
from tests.checkers import arrival_phase, link_direction


def build_all(spec, host_ports=None):
    topo = expected_tree(spec, host_ports=host_ports)
    entries = {
        uid: build_forwarding_entries(topo, uid) for uid in topo.switches
    }
    return topo, entries


def test_link_direction_favors_lower_level():
    topo = expected_tree(line(3))
    for link in topo.links:
        up = link_direction(topo, link)
        down = link.other_end(up.uid)
        assert topo.level(up.uid) <= topo.level(down.uid)


def test_link_direction_tie_by_uid():
    # ring of 4: the two level-1 switches share a link in some rings
    topo = expected_tree(ring(4))
    for link in topo.links:
        up = link_direction(topo, link)
        down = link.other_end(up.uid)
        if topo.level(up.uid) == topo.level(down.uid):
            assert up.uid < down.uid


def test_directed_links_form_no_loops():
    """The orientation must be acyclic (the basis of deadlock freedom)."""
    import networkx as nx

    for spec in (ring(6), torus(3, 3), random_regular(12, 3, seed=7)):
        topo = expected_tree(spec)
        g = nx.DiGraph()
        for link in topo.links:
            up = link_direction(topo, link)
            down = link.other_end(up.uid)
            g.add_edge(down.uid, up.uid)  # edge points "up"
        assert nx.is_directed_acyclic_graph(g)


@pytest.mark.parametrize(
    "spec",
    [line(2), line(5), ring(5), mesh(3, 4), torus(3, 4), random_regular(10, 3, seed=1)],
    ids=lambda s: s.name,
)
def test_all_pairs_reachable(spec):
    topo, entries = build_all(spec)
    results = all_pairs_reachable(topo, entries)
    assert all(results.values()), [k for k, v in results.items() if not v]


@pytest.mark.parametrize(
    "spec",
    [ring(6), torus(3, 4), mesh(4, 4), random_regular(14, 4, seed=3)],
    ids=lambda s: s.name,
)
def test_no_down_to_up_entries(spec):
    topo, entries = build_all(spec)
    check_no_down_to_up(topo, entries)


@pytest.mark.parametrize(
    "spec",
    [ring(6), torus(3, 4), mesh(4, 4), random_regular(16, 4, seed=9)],
    ids=lambda s: s.name,
)
def test_updown_routes_are_deadlock_free(spec):
    topo, entries = build_all(spec)
    assert is_acyclic(channel_dependency_graph(topo, entries))


def test_all_links_used_in_some_route():
    """Section 4.2: up*/down* allows all (non-loop) links to carry packets."""
    for spec in (ring(6), torus(3, 4), mesh(3, 3)):
        topo, entries = build_all(spec)
        used = links_used(topo, entries)
        assert used == topo.links


def test_minimum_hop_routes():
    """Tables allow only minimum-hop legal routes (section 6.6.4)."""
    spec = torus(3, 4)
    topo, entries = build_all(spec)
    uids = sorted(topo.switches)
    src, dst = uids[0], uids[-1]
    address = make_short_address(topo.numbers[dst], CONTROL_PROCESSOR_PORT)

    # walk every alternative and verify path lengths equal the legal distance
    def walk(uid, in_port, hops):
        if uid == dst:
            return {hops}
        entry = entries[uid][address][in_port]
        lengths = set()
        for port in entry.ports:
            far = topo.neighbors(uid)[port]
            lengths |= walk(far.uid, far.port, hops + 1)
        return lengths

    lengths = walk(src, CONTROL_PROCESSOR_PORT, 0)
    assert lengths == {topo.index().distance(src, dst, UP)}


def test_multipath_on_parallel_trunk():
    """Parallel links between two switches function as a trunk group."""
    from repro.topology.generators import TopologySpec
    from repro.types import Uid

    spec = TopologySpec(uids=[Uid(1), Uid(2)], name="trunk")
    spec.cables = [(0, 1, 1, 1), (0, 2, 1, 2)]  # two parallel cables
    topo, entries = build_all(spec)
    address = make_short_address(topo.numbers[Uid(2)], CONTROL_PROCESSOR_PORT)
    entry = entries[Uid(1)][address][CONTROL_PROCESSOR_PORT]
    assert entry.ports == (1, 2)
    assert not entry.broadcast


def test_host_address_delivery():
    spec = torus(3, 4)
    host_ports = {0: [7, 8], 5: [7]}
    topo, entries = build_all(spec, host_ports=host_ports)
    uids = spec.uids
    address = make_short_address(topo.numbers[uids[0]], 7)
    delivered = deliveries(topo.index().nbrs, entries, uids[5], 7, address)
    assert delivered == {(uids[0], 7)}


def test_packet_to_non_host_port_discarded():
    spec = line(3)
    topo, entries = build_all(spec, host_ports={0: [5]})
    # port 9 of switch 0 is not a host port: deliveries must be empty
    address = make_short_address(topo.numbers[spec.uids[0]], 9)
    delivered = deliveries(
        topo.index().nbrs, entries, spec.uids[2], CONTROL_PROCESSOR_PORT, address
    )
    assert delivered == set()


def test_broadcast_reaches_every_host_exactly_once():
    spec = torus(3, 4)
    host_ports = {i: [7, 8] for i in range(spec.n_switches)}
    topo, entries = build_all(spec, host_ports=host_ports)

    # flood from one host: simulate the simultaneous-forwarding semantics
    deliveries = []

    def flood(uid, in_port, depth=0):
        assert depth < 100, "broadcast loop"
        entry = entries[uid][ADDR_BROADCAST_HOSTS][in_port]
        for port in entry.ports:
            neighbor = topo.neighbors(uid).get(port)
            if neighbor is not None:
                flood(neighbor.uid, neighbor.port, depth + 1)
            else:
                deliveries.append((uid, port))

    flood(spec.uids[3], 7)
    expected = {(spec.uids[i], p) for i in range(spec.n_switches) for p in (7, 8)}
    assert set(deliveries) == expected
    assert len(deliveries) == len(expected), "duplicate broadcast deliveries"


def test_broadcast_switches_reaches_every_cp():
    spec = mesh(3, 3)
    topo, entries = build_all(spec)
    deliveries = []

    def flood(uid, in_port, depth=0):
        assert depth < 50
        entry = entries[uid][ADDR_BROADCAST_SWITCHES][in_port]
        for port in entry.ports:
            if port == CONTROL_PROCESSOR_PORT:
                deliveries.append(uid)
            else:
                neighbor = topo.neighbors(uid)[port]
                flood(neighbor.uid, neighbor.port, depth + 1)

    flood(spec.uids[4], CONTROL_PROCESSOR_PORT)
    assert sorted(deliveries) == sorted(topo.switches)


def test_broadcast_all_reaches_hosts_and_cps():
    spec = line(4)
    host_ports = {1: [6]}
    topo, entries = build_all(spec, host_ports=host_ports)
    hosts, cps = [], []

    def flood(uid, in_port, depth=0):
        assert depth < 50
        entry = entries[uid][ADDR_BROADCAST_ALL][in_port]
        for port in entry.ports:
            if port == CONTROL_PROCESSOR_PORT:
                cps.append(uid)
            else:
                neighbor = topo.neighbors(uid).get(port)
                if neighbor is None:
                    hosts.append((uid, port))
                else:
                    flood(neighbor.uid, neighbor.port, depth + 1)

    flood(spec.uids[0], CONTROL_PROCESSOR_PORT)
    assert sorted(cps) == sorted(topo.switches)
    assert hosts == [(spec.uids[1], 6)]


def test_arrival_phase_host_and_cp_are_up():
    spec = line(3)
    topo, _ = build_all(spec, host_ports={1: [9]})
    assert arrival_phase(topo, spec.uids[1], 9) == UP
    assert arrival_phase(topo, spec.uids[1], CONTROL_PROCESSOR_PORT) == UP


def test_arrival_phase_tree_links():
    spec = line(3)
    topo, _ = build_all(spec)
    # switch 1 is a child of switch 0 (root): arriving at 1 from 0 is DOWN,
    # arriving at 0 from 1 is UP
    link = next(iter({ln for ln in topo.links if {ln.a.uid, ln.b.uid} == {spec.uids[0], spec.uids[1]}}))
    end0 = link.endpoint_at(spec.uids[0])
    end1 = link.endpoint_at(spec.uids[1])
    assert arrival_phase(topo, spec.uids[1], end1.port) == DOWN
    assert arrival_phase(topo, spec.uids[0], end0.port) == UP


def test_dependency_graph_has_nodes_per_channel():
    spec = ring(4)
    topo, entries = build_all(spec)
    graph = channel_dependency_graph(topo, entries)
    assert len(graph) == 2 * len(topo.links)
