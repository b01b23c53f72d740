"""Comparators: the token ring and the routing ablations."""

from benchmarks.rigs.routing_ablation import (
    build_shortest_path_entries,
    tree_only_topology,
)
from benchmarks.rigs.token_ring import RING_BROADCAST, TokenRing
from repro.analysis.invariants import (
    all_pairs_reachable,
    channel_dependency_graph,
    is_acyclic,
    links_used,
)
from repro.constants import MS
from repro.core.routing import build_forwarding_entries
from repro.sim.engine import Simulator
from repro.topology import expected_tree, ring, torus


class TestTokenRing:
    def test_delivery(self):
        sim = Simulator()
        ring_net = TokenRing(sim, 8)
        got = []
        ring_net.stations[3].on_receive = lambda src, dst, size, p: got.append(size)
        ring_net.stations[0].send(ring_net.stations[3].uid, 900)
        sim.run(until=50 * MS)
        assert got == [900]

    def test_latency_grows_with_ring_size(self):
        """Section 3.2: a ring has latency proportional to the number of
        hosts."""

        def mean_latency(n):
            sim = Simulator()
            ring_net = TokenRing(sim, n)
            for i in range(n):
                ring_net.stations[i].send(
                    ring_net.stations[(i + n // 2) % n].uid, 500
                )
            sim.run(until=100 * MS)
            return ring_net.mean_latency_ns()

        assert mean_latency(64) > 2.5 * mean_latency(16)

    def test_aggregate_capped_at_link_bandwidth(self):
        sim = Simulator()
        ring_net = TokenRing(sim, 16, max_queue=100_000)
        for station in ring_net.stations:
            partner = ring_net.stations[(station.index + 8) % 16]
            for _ in range(400):
                station.send(partner.uid, 1400)
        sim.run(until=100 * MS)
        mbps = ring_net.bytes_carried * 8 / (100 * MS) * 1e3
        assert mbps <= 100.0

    def test_broadcast(self):
        sim = Simulator()
        ring_net = TokenRing(sim, 4)
        got = []
        for s in ring_net.stations[1:]:
            s.on_receive = lambda src, dst, size, p, s=s: got.append(s.index)
        ring_net.stations[0].send(RING_BROADCAST, 200)
        sim.run(until=50 * MS)
        assert sorted(got) == [1, 2, 3]


class TestRoutingAblation:
    def test_tree_only_topology_has_n_minus_1_links(self):
        topo = expected_tree(torus(3, 4))
        tree = tree_only_topology(topo)
        assert len(tree.links) == len(topo.switches) - 1
        assert tree.links < topo.links

    def test_tree_only_routing_reachable_and_deadlock_free(self):
        topo = expected_tree(torus(3, 4))
        tree = tree_only_topology(topo)
        entries = {uid: build_forwarding_entries(tree, uid) for uid in tree.switches}
        assert all(all_pairs_reachable(tree, entries).values())
        assert is_acyclic(channel_dependency_graph(tree, entries))

    def test_tree_only_wastes_cross_links(self):
        """Tree routing leaves every non-tree link idle (E11's point)."""
        topo = expected_tree(torus(3, 4))
        tree = tree_only_topology(topo)
        entries = {uid: build_forwarding_entries(tree, uid) for uid in tree.switches}
        used = links_used(topo, entries)
        assert used == tree.links
        assert len(used) < len(topo.links)

    def test_shortest_path_reaches_everything(self):
        topo = expected_tree(torus(3, 4))
        entries = {
            uid: build_shortest_path_entries(topo, uid) for uid in topo.switches
        }
        assert all(all_pairs_reachable(topo, entries).values())

    def test_shortest_path_admits_deadlock_on_ring(self):
        """Unrestricted minimum-hop routing has dependency cycles on any
        cycle-containing topology (section 3.6)."""
        for spec in (ring(6), torus(3, 4)):
            topo = expected_tree(spec)
            entries = {
                uid: build_shortest_path_entries(topo, uid) for uid in topo.switches
            }
            assert not is_acyclic(channel_dependency_graph(topo, entries))

    def test_updown_free_where_shortest_path_is_not(self):
        spec = torus(3, 4)
        topo = expected_tree(spec)
        updown = {uid: build_forwarding_entries(topo, uid) for uid in topo.switches}
        shortest = {
            uid: build_shortest_path_entries(topo, uid) for uid in topo.switches
        }
        assert is_acyclic(channel_dependency_graph(topo, updown))
        assert not is_acyclic(channel_dependency_graph(topo, shortest))
