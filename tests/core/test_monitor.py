"""Port-state monitoring on live networks: classification fingerprints
(sections 6.5.2-6.5.4)."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import MS, SEC
from repro.core.messages import ConnectivityReply
from repro.core.monitor import MonitorParams
from repro.core.portstate import PortState, transition_allowed
from repro.net.link import LinkState
from repro.net.linkunit import (
    BAD_CODE, BAD_SYNTAX, IDHY_SEEN, IS_HOST, PROGRESS_SEEN, START_SEEN, STOP_SEEN,
)
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


def looped_switch():
    """One switch, port 1 cabled to its own port 2, run until classified."""
    spec = TopologySpec(uids=[Uid(0x1000)], name="loop")
    spec.cables = [(0, 1, 0, 2)]
    net = Network(spec)
    net.run_for(15 * SEC)
    return net


def test_looped_link_classified_loop():
    """A port cabled to another port on the same switch echoes the
    switch's own UID in connectivity replies: s.switch.loop."""
    net = looped_switch()
    assert net.autopilots[0].monitoring.state_of(1) is PortState.SWITCH_LOOP
    assert net.autopilots[0].monitoring.state_of(2) is PortState.SWITCH_LOOP


def port_states(net, sw, port):
    """The ``old->new (reason)`` tail of every logged transition of one port."""
    prefix = f"port={port} "
    return [
        e.detail[len(prefix):] for e in net.autopilots[sw].trace.entries()
        if e.event == "port-state" and e.detail.startswith(prefix)
    ]


def test_reflecting_link_classified_loop():
    """An unterminated coax reflects the port's own signal: the port hears
    its own UID and is relegated to s.switch.loop -- by way of
    s.switch.who, the only gray arrows Figure 8 has out of s.switch.good
    and into s.switch.loop, and with one reconfiguration for the pair."""
    net = Network(line(2))
    net.run_for(10 * SEC)
    a, pa, b, pb = net.spec.cables[0]
    link = net.links[(a, pa)]
    # make the link reflect at sw0's side (sw1 unplugged/powered off)
    endpoint = net.switches[a].ports[pa]
    state = LinkState.REFLECTING_A if link.a is endpoint else LinkState.REFLECTING_B
    before = len(port_states(net, a, pa))
    link.set_state(state)
    net.run_for(20 * SEC)
    assert port_states(net, a, pa)[before:] == [
        "s.switch.good->s.switch.who (neighbor changed)",
        "s.switch.who->s.switch.loop (own UID echoed)",
    ]
    triggers = [e.detail for e in net.autopilots[a].trace.entries()
                if e.event == "reconfig-trigger"]
    assert triggers[-1] == f"port {pa}: s.switch.good->s.switch.who"
    assert net.autopilots[a].monitoring.neighbor_of(pa) is None


def foreign_reply(monitoring, port, uid=Uid(0x2000)):
    """Answer the port's outstanding probe as switch ``uid`` would."""
    ap, mon = monitoring.ap, monitoring.ports[port]
    mon.nonce += 1
    mon.awaiting_nonce = mon.nonce
    monitoring.on_probe_reply(port, ConnectivityReply(
        epoch=ap.epoch, sender_uid=uid, nonce=mon.nonce,
        echo_uid=ap.uid, echo_port=port, sender_port=3,
    ))


def test_healed_loop_reaches_good_via_who():
    """A foreign reply on an s.switch.loop port (the loopback plug came
    out and a neighbor is there) moves it to s.switch.who and counts from
    there; s.switch.loop -> s.switch.good is not an arrow."""
    net = looped_switch()
    monitoring = net.autopilots[0].monitoring
    mon = monitoring.ports[1]
    assert mon.state is PortState.SWITCH_LOOP
    before = len(port_states(net, 0, 1))
    foreign_reply(monitoring, 1)
    assert mon.state is PortState.SWITCH_WHO and mon.consecutive_good == 1
    while mon.state is PortState.SWITCH_WHO:
        foreign_reply(monitoring, 1)
    assert mon.consecutive_good == mon.conn_skeptic.required
    assert port_states(net, 0, 1)[before:] == [
        "s.switch.loop->s.switch.who (foreign UID echoed)",
        "s.switch.who->s.switch.good (responsive neighbor)",
    ]


def test_loop_port_whose_echoes_stop_returns_to_who():
    """Unanswered probes demote s.switch.loop as they demote
    s.switch.good: the reflection is gone, so who is out there is unknown."""
    net = looped_switch()
    monitoring = net.autopilots[0].monitoring
    mon = monitoring.ports[1]
    assert mon.state is PortState.SWITCH_LOOP
    for _ in range(monitoring.params.probe_miss_limit):
        mon.awaiting_nonce = mon.nonce  # the last probe went unanswered
        monitoring._account_miss(1)
    assert port_states(net, 0, 1)[-1] == "s.switch.loop->s.switch.who (probe replies missing)"


def test_transition_refuses_a_pair_figure_8_does_not_have():
    net = Network(line(2))
    monitoring = net.autopilots[0].monitoring
    assert monitoring.state_of(1) is PortState.DEAD
    with pytest.raises(ValueError, match=r"s\.dead->s\.host \(test\) is not an arrow"):
        monitoring._transition(1, PortState.HOST, "test")
    assert monitoring.state_of(1) is PortState.DEAD


_QUIET = START_SEEN | PROGRESS_SEEN
_STEPS = st.lists(
    st.tuples(st.just("sample"), st.sampled_from([
        _QUIET, _QUIET | IS_HOST, _QUIET | IDHY_SEEN, START_SEEN, STOP_SEEN,
        BAD_SYNTAX, BAD_CODE, 0,
    ]))
    | st.tuples(st.just("reply"), st.sampled_from([0x1000, 0x2000, 0x3000]))
    | st.tuples(st.just("miss"), st.none())
    | st.tuples(st.just("run"), st.integers(1, 300)),
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(steps=_STEPS)
def test_any_status_and_reply_sequence_takes_only_figure_8_arrows(steps):
    """From a working link, whatever the link unit then shows and whoever
    answers the probes, every state change is an arrow of Figure 8
    (``_transition`` raises on any other pair, and the log agrees)."""
    spec = TopologySpec(uids=[Uid(0x1000), Uid(0x2000)], name="pair")
    spec.cables = [(0, 1, 1, 1)]
    net = Network(spec)
    net.run_for(1 * SEC)
    monitoring = net.autopilots[0].monitoring
    assert monitoring.state_of(1) is PortState.SWITCH_GOOD
    low = MonitorParams(bad_sample_limit=2, classify_samples=2, probe_miss_limit=1)
    monitoring.params = monitoring.ports[1].params = low
    for kind, arg in steps:
        if kind == "sample":
            monitoring._sample_port(1, arg)
        elif kind == "reply":
            foreign_reply(monitoring, 1, uid=Uid(arg))
        elif kind == "miss":
            monitoring.ports[1].awaiting_nonce = 0
            monitoring._account_miss(1)
        else:
            net.run_for(arg * MS)
    for step in port_states(net, 0, 1):
        old, new = step.split(" ")[0].split("->")
        assert transition_allowed(PortState(old), PortState(new)), step


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
