"""Local reconfiguration (section 7 future work, implemented as an
optional extension): non-tree link deaths are handled with a flooded
delta and local table recomputation -- no new epoch, no traffic blackout."""


from repro.analysis.invariants import all_pairs_reachable, check_no_down_to_up
from repro.constants import SEC
from repro.core.autopilot import AutopilotParams
from repro.network import Network
from repro.topology import ring, torus


def local_net(spec):
    def factory(_i):
        params = AutopilotParams()
        params.reconfig.enable_local_reconfig = True
        return params

    net = Network(spec, params_factory=factory)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(2 * SEC)
    return net


def test_cross_link_death_avoids_new_epoch():
    net = local_net(ring(4))
    epoch = net.current_epoch()
    links = len(net.topology().links)
    net.cut_link(2, 3)  # the one non-tree link of a 4-ring
    net.run_for(10 * SEC)
    assert net.current_epoch() == epoch, "local reconfig must not bump the epoch"
    # every switch applied the delta in place
    for ap in net.autopilots:
        assert len(ap.engine.topology.links) == links - 1


def test_tables_stay_consistent_after_local_reconfig():
    net = local_net(torus(3, 3))
    topo_before = net.topology()
    # find a non-tree link to cut
    from benchmarks.rigs.routing_ablation import tree_only_topology

    tree = tree_only_topology(topo_before)
    cross = next(iter(topo_before.links - tree.links))
    a = [i for i, s in enumerate(net.switches) if s.uid == cross.a.uid][0]
    b = [i for i, s in enumerate(net.switches) if s.uid == cross.b.uid][0]
    epoch = net.current_epoch()
    net.cut_link(a, b)
    net.run_for(10 * SEC)
    assert net.current_epoch() == epoch

    topo = net.autopilots[0].engine.topology
    entries = {
        ap.uid: ap.switch.table.non_constant_rows() for ap in net.autopilots
    }
    results = all_pairs_reachable(topo, entries)
    assert all(results.values())
    check_no_down_to_up(topo, entries)


def test_tree_link_death_still_goes_global():
    net = local_net(ring(4))
    epoch = net.current_epoch()
    net.cut_link(0, 1)  # a spanning-tree link: levels/directions change
    assert net.run_until_converged(timeout_ns=60 * SEC)
    assert net.current_epoch() > epoch


def test_global_reconfig_after_local_still_works():
    net = local_net(ring(4))
    net.cut_link(2, 3)       # local
    net.run_for(10 * SEC)
    epoch = net.current_epoch()
    net.cut_link(0, 1)       # global; the ring is now a line
    assert net.run_until_converged(timeout_ns=60 * SEC)
    assert net.current_epoch() > epoch
    # partitioned: 0 alone? no -- ring minus (2,3) minus (0,1): 0-3, 1-2
    topologies = {frozenset(ap.engine.topology.switches) for ap in net.autopilots}
    assert all(len(t) == 2 for t in topologies)


def test_paper_default_always_goes_global():
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    epoch = net.current_epoch()
    net.cut_link(2, 3)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    assert net.current_epoch() > epoch  # the paper's behaviour
