"""Port-state monitoring on live networks: classification fingerprints
(sections 6.5.2-6.5.4)."""


from repro.constants import MS, SEC
from repro.core.portstate import PortState
from repro.net.link import LinkState
from repro.net.linkunit import BAD_SYNTAX, IS_HOST, PROGRESS_SEEN, START_SEEN, STOP_SEEN
from repro.network import Network
from repro.topology import line
from repro.topology.generators import TopologySpec
from repro.types import Uid
from tests.core.test_sampler_oracle import wedge


def states(net, sw):
    return {p: net.autopilots[sw].monitoring.state_of(p) for p in range(1, 13)}


def test_switch_links_become_good():
    net = Network(line(2))
    net.run_for(10 * SEC)
    cabled = net.spec.cables[0]
    assert net.autopilots[0].monitoring.state_of(cabled[1]) is PortState.SWITCH_GOOD
    assert net.autopilots[1].monitoring.state_of(cabled[3]) is PortState.SWITCH_GOOD


def test_unconnected_ports_stay_dead():
    net = Network(line(2))
    net.run_for(10 * SEC)
    for p, state in states(net, 0).items():
        if p != net.spec.cables[0][1]:
            assert state is PortState.DEAD


def test_active_host_port_classified_host():
    net = Network(line(2))
    net.add_host("h", [(0, 5), (1, 5)])
    net.run_for(10 * SEC)
    assert net.autopilots[0].monitoring.state_of(5) is PortState.HOST


def test_alternate_host_port_classified_host():
    """The sync-only alternate port shows constant BadSyntax and nothing
    else: classified s.host (section 6.5.3)."""
    net = Network(line(2))
    net.add_host("h", [(0, 5), (1, 5)])
    net.run_for(10 * SEC)
    assert net.autopilots[1].monitoring.state_of(5) is PortState.HOST


def test_looped_link_classified_loop():
    """A port cabled to another port on the same switch echoes the
    switch's own UID in connectivity replies: s.switch.loop."""
    spec = TopologySpec(uids=[Uid(0x1000)], name="loop")
    spec.cables = [(0, 1, 0, 2)]
    net = Network(spec)
    net.run_for(15 * SEC)
    assert net.autopilots[0].monitoring.state_of(1) is PortState.SWITCH_LOOP
    assert net.autopilots[0].monitoring.state_of(2) is PortState.SWITCH_LOOP


def test_reflecting_link_classified_loop():
    """An unterminated coax reflects the port's own signal: the port hears
    its own UID and is relegated to s.switch.loop."""
    net = Network(line(2))
    net.run_for(10 * SEC)
    a, pa, b, pb = net.spec.cables[0]
    link = net.links[(a, pa)]
    # make the link reflect at sw0's side (sw1 unplugged/powered off)
    endpoint = net.switches[a].ports[pa]
    state = LinkState.REFLECTING_A if link.a is endpoint else LinkState.REFLECTING_B
    link.set_state(state)
    net.run_for(20 * SEC)
    assert net.autopilots[a].monitoring.state_of(pa) in (
        PortState.SWITCH_LOOP,
        PortState.SWITCH_WHO,
    )
    assert net.autopilots[a].monitoring.state_of(pa) is not PortState.SWITCH_GOOD


def test_cut_link_goes_dead_and_triggers_reconfig():
    net = Network(line(3))
    assert net.run_until_converged(timeout_ns=30 * SEC)
    epoch = net.current_epoch()
    a, pa, b, pb = net.spec.cables[0]
    net.cut_link(0, 1)
    net.run_for(5 * SEC)
    assert net.autopilots[a].monitoring.state_of(pa) is PortState.DEAD
    assert net.autopilots[b].monitoring.state_of(pb) is PortState.DEAD
    assert net.current_epoch() > epoch


def test_restored_link_rejoins():
    net = Network(line(3))
    assert net.run_until_converged(timeout_ns=30 * SEC)
    net.cut_link(1, 2)
    assert net.run_until_converged(timeout_ns=30 * SEC)
    assert len(net.topology().switches) < 3 or len(net.topology().links) == 1
    net.restore_link(1, 2)
    # healing takes skeptic hold + probe streak; give it a fixed window
    net.run_for(20 * SEC)
    assert net.converged(), net.describe()
    assert len(net.topology().switches) == 3
    assert len(net.topology().links) == 2


def test_neighbor_identity_recorded():
    net = Network(line(2))
    net.run_for(10 * SEC)
    a, pa, b, pb = net.spec.cables[0]
    neighbor = net.autopilots[a].monitoring.neighbor_of(pa)
    assert neighbor is not None
    assert neighbor.uid == net.switches[b].uid
    assert neighbor.port == pb


def test_partition_forms_two_networks():
    """Section 6.6: physically separated partitions configure as
    disconnected operational networks."""
    net = Network(line(4))
    assert net.run_until_converged(timeout_ns=30 * SEC)
    net.cut_link(1, 2)
    net.run_for(20 * SEC)
    left = net.autopilots[0].engine.topology
    right = net.autopilots[3].engine.topology
    assert len(left.switches) == 2
    assert len(right.switches) == 2
    assert set(left.switches).isdisjoint(right.switches)


# -- long-term blockage removal (section 6.5.3) ---------------------------------------------


def port_deaths(net, sw):
    return [
        e.detail for e in net.autopilots[sw].trace.entries()
        if e.event == "port-state" and "->s.dead" in e.detail
    ]


def converged_pair_with_host():
    net = Network(line(2))
    net.add_host("h", [(0, 5), (1, 5)])  # sw0.p5 active, sw1.p5 alternate
    assert net.run_until_converged(timeout_ns=30 * SEC)
    return net, net.autopilots[0].monitoring, net.spec.cables[0][1]


def test_only_stop_directives_remove_the_port():
    """An interval in which ONLY stop is received is a blockage: the port
    dies at ``blockage_sample_limit`` samples, not one before."""
    net, monitoring, port = converged_pair_with_host()
    limit = monitoring.params.blockage_sample_limit
    for _ in range(limit - 1):
        monitoring._sample_port(port, STOP_SEEN | PROGRESS_SEEN)
    assert monitoring.state_of(port) is PortState.SWITCH_GOOD
    monitoring._sample_port(port, START_SEEN | PROGRESS_SEEN)  # one start resets the count
    for _ in range(limit - 1):
        monitoring._sample_port(port, STOP_SEEN | PROGRESS_SEEN)
    assert monitoring.state_of(port) is PortState.SWITCH_GOOD
    monitoring._sample_port(port, STOP_SEEN | PROGRESS_SEEN)
    assert monitoring.state_of(port) is PortState.DEAD
    assert port_deaths(net, 0)[-1].endswith("(no start directives)")


def test_waiting_packet_without_progress_removes_the_port():
    net, monitoring, _port = converged_pair_with_host()
    limit = monitoring.params.progress_sample_limit
    for _ in range(limit - 1):
        monitoring._sample_port(5, IS_HOST | START_SEEN)
    assert monitoring.state_of(5) is PortState.HOST
    monitoring._sample_port(5, IS_HOST | START_SEEN)
    assert monitoring.state_of(5) is PortState.DEAD
    assert port_deaths(net, 0)[-1].endswith("(no forwarding progress)")


def test_silent_alternate_host_port_is_not_a_blockage():
    """An alternate host port receives no directives at all -- neither
    start nor stop -- and must stay s.host (section 6.5.3)."""
    net, _monitoring, _port = converged_pair_with_host()
    monitoring = net.autopilots[1].monitoring
    for _ in range(3 * monitoring.params.blockage_sample_limit):
        monitoring._sample_port(5, BAD_SYNTAX | PROGRESS_SEEN)
    assert monitoring.state_of(5) is PortState.HOST


def test_host_port_that_starts_sending_start_is_removed():
    """Recabled to a switch, or reflecting its own directives because the
    host powered off: confirmed over ``classify_samples`` samples."""
    net, monitoring, _port = converged_pair_with_host()
    window = monitoring.params.classify_samples
    for _ in range(window - 1):
        monitoring._sample_port(5, START_SEEN | PROGRESS_SEEN)
    monitoring._sample_port(5, IS_HOST | START_SEEN | PROGRESS_SEEN)  # a glitch, not a trend
    for _ in range(window - 1):
        monitoring._sample_port(5, START_SEEN | PROGRESS_SEEN)
    assert monitoring.state_of(5) is PortState.HOST
    monitoring._sample_port(5, START_SEEN | PROGRESS_SEEN)
    assert monitoring.state_of(5) is PortState.DEAD
    assert port_deaths(net, 0)[-1].endswith("(host port now sends start)")


def test_blockage_streaks_do_not_survive_s_dead():
    """Entering s.dead clears the three blockage streaks with the other
    sampler counters (they used to ride through s.dead -> s.checking ->
    s.switch.who untouched, because the blockage rule does not run there)."""
    _net, monitoring, port = converged_pair_with_host()
    mon = monitoring.ports[port]
    mon.no_start_streak = mon.no_progress_streak = mon.host_anomaly_streak = 7
    monitoring._transition(port, PortState.DEAD, "test")
    assert (mon.no_start_streak, mon.no_progress_streak, mon.host_anomaly_streak) == (0, 0, 0)


def test_port_killed_by_a_blockage_survives_one_stalled_sample_after_rejoining():
    """End to end: wedge a FIFO until the port dies of "no forwarding
    progress", let it re-join, and stall its very first sample back in
    service.  One stalled sample is one, not progress_sample_limit + 1."""
    net, monitoring, _port = converged_pair_with_host()
    unit = net.switches[0].ports[5]

    # armed first: wedge it again the instant it is back in s.host, for one sample
    transition = monitoring._transition
    rejoined = []

    def rewedge_on_rejoin(port, new_state, reason):
        transition(port, new_state, reason)
        if port == 5 and new_state is PortState.HOST:
            assert not unit.fifo.queue  # s.dead isolated the port: the first wedge is gone
            rejoined.append(net.sim.now)
            wedge(unit)
            net.sim.after(15 * MS, unit.reset)  # after exactly one sample

    monitoring._transition = rewedge_on_rejoin
    wedge(unit)
    net.run_for(3 * SEC)
    assert len(rejoined) == 1
    assert port_deaths(net, 0)[0].endswith("(no forwarding progress)")
    assert monitoring.state_of(5) is PortState.HOST
    assert len(port_deaths(net, 0)) == 1, port_deaths(net, 0)
    assert monitoring.ports[5].no_progress_streak == 0
