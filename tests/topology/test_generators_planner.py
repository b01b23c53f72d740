"""Topology generators, the SRC LAN, and the installation planner."""

import networkx as nx
import pytest

from repro.constants import SEC
from repro.topology import (
    dcell,
    expected_tree,
    fat_tree,
    line,
    mesh,
    random_regular,
    ring,
    src_service_lan,
    topology_names,
    torus,
    tree,
)
from repro.topology.planner import plan_installation


def as_graph(spec):
    g = nx.MultiGraph()
    g.add_nodes_from(range(spec.n_switches))
    g.add_edges_from((a, b) for a, _pa, b, _pb in spec.cables)
    return g


class TestGenerators:
    def test_line(self):
        spec = line(5)
        assert spec.n_switches == 5
        assert len(spec.cables) == 4
        assert nx.is_connected(as_graph(spec))

    def test_ring(self):
        spec = ring(6)
        g = as_graph(spec)
        assert all(d == 2 for _n, d in g.degree())

    def test_tree(self):
        spec = tree(depth=3, fanout=2)
        assert spec.n_switches == 15
        assert len(spec.cables) == 14

    def test_mesh_and_torus_edge_counts(self):
        assert len(mesh(3, 4).cables) == 3 * 3 + 2 * 4  # rows*(c-1) + (r-1)*cols
        g = as_graph(torus(4, 4))
        assert all(d == 4 for _n, d in g.degree())

    def test_random_regular_connected_and_bounded(self):
        for seed in range(5):
            spec = random_regular(15, degree=4, seed=seed)
            g = as_graph(spec)
            assert nx.is_connected(g)
            assert max(d for _n, d in g.degree()) <= 12

    def test_ports_never_reused(self):
        for spec in (torus(4, 8), random_regular(20, 4, seed=2), tree(3, 3),
                     fat_tree(6), dcell(4, level=1), dcell(2, level=2)):
            for i in range(spec.n_switches):
                used = spec.used_ports(i)
                assert len(used) == len(set(used)), f"{spec.name} sw{i}"

    def test_fat_tree_shape(self):
        for k, n in ((4, 20), (6, 45), (8, 80)):
            spec = fat_tree(k)
            g = as_graph(spec)
            assert spec.n_switches == n
            # k^2/4 core-agg links per pod * k pods, plus (k/2)^2 agg-edge
            # links per pod * k pods = k^3/2 switch-to-switch links
            assert len(spec.cables) == k**3 // 2
            assert nx.is_connected(g)
            assert nx.is_biconnected(nx.Graph(g))
            assert max(d for _n, d in g.degree()) <= k

    def test_fat_tree_rejects_odd_or_oversized_arity(self):
        with pytest.raises(ValueError):
            fat_tree(3)
        with pytest.raises(ValueError):
            fat_tree(14)  # more ports than the 12-port crossbar has

    def test_dcell_shape(self):
        # t_1 = n(n+1) servers plus one mini-switch per n-server cell
        for n, total in ((2, 9), (3, 16), (4, 25)):
            spec = dcell(n, level=1)
            g = as_graph(spec)
            assert spec.n_switches == total
            assert nx.is_connected(g)
            assert nx.is_biconnected(nx.Graph(g))
        # level 2 recursion: t_2 = t_1(t_1+1) = 42 servers + 21 switches
        spec = dcell(2, level=2)
        assert spec.n_switches == 63
        assert nx.is_biconnected(nx.Graph(as_graph(spec)))

    def test_dcell_level_zero_is_a_star(self):
        spec = dcell(4, level=0)
        g = as_graph(spec)
        assert spec.n_switches == 5
        assert not nx.is_biconnected(nx.Graph(g))  # the mini-switch is a cut vertex

    def test_dcell_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dcell(1)
        with pytest.raises(ValueError):
            dcell(13)
        with pytest.raises(ValueError):
            dcell(3, level=3)

    def test_topology_names_all_resolve(self):
        from repro.topology import resolve_topology

        names = topology_names()
        assert "fat-tree-4" in names and "dcell-3l1" in names
        for name in names:
            assert resolve_topology(name).n_switches > 0, name

    def test_expected_tree_matches_protocol_root(self):
        spec = ring(5)
        topo = expected_tree(spec)
        assert topo.root == min(spec.uids)
        topo.validate()

    def test_expected_tree_rejects_disconnected(self):
        from repro.topology.generators import TopologySpec
        from repro.types import Uid

        spec = TopologySpec(uids=[Uid(1), Uid(2)], name="disconnected")
        with pytest.raises(ValueError):
            expected_tree(spec)


class TestSrcLan:
    def test_thirty_switches(self):
        spec = src_service_lan()
        assert spec.n_switches == 30

    def test_at_most_four_trunk_ports_per_switch(self):
        """Section 5.5: four ports for switch links, eight for hosts."""
        spec = src_service_lan()
        for i in range(30):
            assert len(spec.used_ports(i)) <= 4

    def test_maximum_distance_six(self):
        """Section 6.6.5: maximum switch-to-switch distance of 6 links."""
        spec = src_service_lan()
        assert nx.diameter(as_graph(spec)) == 6

    def test_survives_any_single_failure(self):
        g = nx.Graph(as_graph(spec := src_service_lan()))
        assert nx.is_biconnected(g)
        assert not list(nx.bridges(g))

    def test_host_capacity_120(self):
        spec = src_service_lan()
        # eight host ports per switch, of the ports no switch link uses
        total = sum(len(spec.free_ports(i)[:8]) for i in range(spec.n_switches))
        assert total == 240  # 120 dual-connected hosts (section 5.5)


class TestPlanner:
    def test_plan_meets_availability_goal(self):
        plan = plan_installation(100)
        assert plan.verify() == []

    def test_capacity_respected(self):
        plan = plan_installation(48, hosts_per_switch=8)
        assert plan.n_hosts == 48
        assert plan.host_capacity() >= 0

    def test_hosts_dual_homed_to_distinct_switches(self):
        plan = plan_installation(30)
        for attachments in plan.host_attachments.values():
            assert len(attachments) == 2
            assert attachments[0][0] != attachments[1][0]

    def test_overfull_plan_rejected(self):
        """More hosts than one Autonet's 126 switch numbers can carry."""
        with pytest.raises(ValueError):
            plan_installation(10_000, hosts_per_switch=2)

    def test_thousand_hosts_fit(self):
        """Section 2: 'An Autonet ought to accommodate at least 1000
        dual-connected hosts.'"""
        plan = plan_installation(500, hosts_per_switch=8)
        assert plan.verify() == []
        assert plan.n_switches <= 126

    def test_summary_renders(self):
        plan = plan_installation(20)
        text = plan.summary()
        assert "switches" in text and "dual-homed hosts" in text

    def test_planned_network_converges_and_carries_traffic(self):
        """End-to-end: build the planned installation and use it."""
        from repro.host.localnet import LocalNet
        from repro.network import Network

        plan = plan_installation(6, hosts_per_switch=4)
        net = Network(plan.spec)
        for name, attachments in plan.host_attachments.items():
            net.add_host(name, attachments)
        localnets = {n: LocalNet(net.drivers[n]) for n in plan.host_attachments}
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)

        got = []
        localnets["host5"].on_datagram = lambda src, et, size, p: got.append(size)
        assert localnets["host0"].send(net.hosts["host5"].uid, 640)
        net.run_for(2 * SEC)
        assert got == [640]
