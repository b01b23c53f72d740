"""The cheaper status sampler is not a blinder one.

``Monitoring.sample_all`` skips ``_sample_port`` for a settled port that
shows its quiet status word.  Two guards:

* a **differential oracle** -- the same scenarios run once with the real
  sampler and once with ``tests/naive_registers.sample_all_never_skipping``
  patched over it must yield identical per-switch trace logs, dispatched
  event counts and final per-port monitor state (CI also runs this file in
  the ``determinism`` job under ``PYTHONHASHSEED=0`` and ``=random``);
* an **exact cost guard**, with no wall clock in it -- status reads are
  cabled ports x samples (a host cabled after convergence included), and
  the number of ``_sample_port`` calls is 0 while a converged network
  idles, positive at both ends of a cut cable from the first sample after
  the cut (or at the ports a hung neighbor stops answering), and 0 again
  once the skeptics have decayed.
"""

import pytest

from repro.constants import MS, SEC
from repro.core.autopilot import AutopilotParams
from repro.core.monitor import Monitoring
from repro.core.portstate import PortState
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.linkunit import LinkUnit
from repro.net.packet import Packet
from repro.network import Network
from repro.topology import line, resolve_topology, ring
from tests.naive_registers import sample_all_never_skipping


def wedge(unit):
    """Park a fully arrived packet at the head of ``unit``'s FIFO whose
    routing request was "issued" and is never granted: a hung drain that
    later arrivals queue up behind."""
    stuck = Packet(dest_short=0x123, src_short=0, data_bytes=100)
    unit.fifo.begin_packet(stuck, 0.0)
    entry = unit.fifo.queue[-1]
    entry.bytes_in = float(stuck.wire_bytes)
    entry.arriving = False
    entry.requested = True


# -- scenarios: each builds a network, drives it and returns it --------------------------


def ring_cut_restore():
    net = Network(ring(4), seed=3)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.restore_link(0, 1)
    net.run_for(15 * SEC)
    return net


def torus_flaps_crash_restart():
    net = Network(resolve_topology("torus-3x4"), seed=5)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.flap_link(0, 1, flaps=2, period_ns=100 * MS)
    net.run_for(300 * MS)
    net.crash_switch(5)
    net.run_for(2 * SEC)
    net.restart_switch(5)
    net.run_for(12 * SEC)
    return net


def src_lan_boot_and_cut():
    net = Network(resolve_topology("src-lan-30"), seed=1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    a, _pa, b, _pb = net.spec.cables[7]
    net.cut_link(a, b)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    return net


def noisy_link():
    net = Network(ring(4), seed=2)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.make_link_noisy(1, 2)
    net.run_for(5 * SEC)
    net.restore_link(1, 2)
    net.run_for(5 * SEC)
    return net


def reflecting_dead_host_storm():
    """The section 7 storm of bench_broadcast_storm."""
    net = Network(line(3), seed=4)
    net.add_host("victim", [(1, 9)])
    net.add_host("observer", [(2, 9), (0, 8)])
    net.add_host("sender", [(0, 10), (2, 10)])
    LocalNet(net.drivers["observer"])
    sender = LocalNet(net.drivers["sender"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    net.power_off_host("victim", reflect=True)
    sender.send(BROADCAST_UID, 200)
    net.run_for(3 * SEC)
    return net


def alternate_host_port_and_failover():
    net = Network(line(2), seed=6)
    net.add_host("h", [(0, 5), (1, 5)])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(3 * SEC)
    net.hosts["h"].select_port(1)
    net.run_for(3 * SEC)
    return net


def panic_with_a_wedged_fifo():
    def factory(_index):
        params = AutopilotParams()
        params.monitor.use_panic = True
        params.monitor.progress_sample_limit = 20
        return params

    net = Network(line(2), seed=7, params_factory=factory)
    net.add_host("h", [(0, 5)])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    _a, _pa, b, pb = net.spec.cables[0]
    wedge(net.switches[b].ports[pb])
    wedge(net.switches[0].ports[5])
    net.run_for(8 * SEC)
    return net


def hosts_cabled_after_convergence():
    """Hosts cabled to a converged switch, the higher port first: the
    sampler's walk takes both up and in port order (their s.dead ->
    s.checking -> s.host steps fall in the same samples)."""
    net = Network(ring(4), seed=8)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.add_host("late9", [(2, 9)])
    net.add_host("late4", [(2, 4), (0, 7)])
    net.run_for(3 * SEC)
    return net


def hung_neighbor_control_processor():
    """A control processor stops while its switch forwards on: every status
    word stays quiet, so its neighbors' ports leave the fixed point only
    through the connectivity path (missed probe replies demote s.switch.good
    and grow the connectivity skeptic) and reach it again once that skeptic
    has decayed."""
    net = Network(ring(4), seed=9)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.autopilots[1].halt()
    net.run_for(35 * SEC)
    return net


SCENARIOS = [
    ring_cut_restore,
    torus_flaps_crash_restart,
    src_lan_boot_and_cut,
    noisy_link,
    reflecting_dead_host_storm,
    alternate_host_port_and_failover,
    panic_with_a_wedged_fifo,
    hosts_cabled_after_convergence,
    hung_neighbor_control_processor,
]


def observe(net):
    """Everything the sampler can influence, in comparable form."""
    traces = [
        [(e.local_time, e.component, e.event, e.detail) for e in log.entries()]
        for log in net.merged_log._logs.values()
    ]
    ports = [
        [
            (
                port, mon.state, mon.clean_samples, mon.bad_streak,
                mon.checking_samples, mon.no_start_streak, mon.no_progress_streak,
                mon.host_anomaly_streak, mon.status_skeptic.hold_ns,
                mon.status_skeptic.failures, mon.status_skeptic._good_since,
                mon.conn_skeptic.required, mon.conn_skeptic._good_since, mon.neighbor,
            )
            for port, mon in ap.monitoring.ports.items()
        ]
        for ap in net.autopilots
    ]
    return net.sim.events_dispatched, net.sim.now, net.current_epoch(), traces, ports


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda fn: fn.__name__)
def test_skipping_sampler_matches_the_never_skipping_one(scenario, monkeypatch):
    real = observe(scenario())
    monkeypatch.setattr(Monitoring, "sample_all", sample_all_never_skipping)
    oracle = observe(scenario())
    assert any(
        "port-state" == event for trace in real[3] for _t, _c, event, _d in trace
    ), "the scenario exercised no port transition"
    # piecewise, so that a failure names what diverged
    for got, want in zip(real, oracle):
        assert got == want


# -- the exact cost guard --------------------------------------------------------------------


class Counts:
    """Counts status reads and ``_sample_port`` calls, per (switch, port)."""

    def __init__(self, monkeypatch):
        self.reads = 0
        self.decisions = {}
        sample_port = Monitoring._sample_port
        sample_status = LinkUnit.sample_status

        def counted_sample_port(monitoring, port, word):
            key = (monitoring.ap.switch.name, port)
            self.decisions[key] = self.decisions.get(key, 0) + 1
            sample_port(monitoring, port, word)

        def counted_sample_status(unit):
            self.reads += 1
            return sample_status(unit)

        monkeypatch.setattr(Monitoring, "_sample_port", counted_sample_port)
        monkeypatch.setattr(LinkUnit, "sample_status", counted_sample_status)

    def reset(self):
        self.reads = 0
        self.decisions = {}


def cabled_ports(net):
    """The ports a sample reads: every cabled port of a running switch."""
    return sum(
        unit.connected for ap in net.alive_autopilots() for unit in ap.switch.ports.values()
    )


def test_converged_network_costs_no_sampler_decisions(monkeypatch):
    counts = Counts(monkeypatch)
    net = Network(resolve_topology("src-lan-30"), seed=0)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    counts.reset()
    net.run_for(1 * SEC)
    # every port is still read every 10 ms; none needs a decision
    assert counts.reads == 100 * cabled_ports(net) == 100 * 2 * len(net.spec.cables)
    assert counts.decisions == {}


def test_a_host_cabled_after_convergence_is_read_every_sample(monkeypatch):
    counts = Counts(monkeypatch)
    net = Network(ring(4), seed=0)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.add_host("late9", [(2, 9)])
    net.add_host("late7", [(0, 7)])
    net.run_for(1 * SEC)
    assert net.autopilots[2].monitoring.host_ports() == (9,)
    assert net.autopilots[0].monitoring.host_ports() == (7,)
    counts.reset()
    net.run_for(1 * SEC)
    assert counts.reads == 100 * cabled_ports(net) == 100 * (2 * len(net.spec.cables) + 2)
    assert counts.decisions == {}


def test_a_port_left_through_the_connectivity_path_settles_again(monkeypatch):
    counts = Counts(monkeypatch)
    net = Network(ring(4), seed=0)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    # the ports facing switch 1, whose control processor stops
    facing = [(a, pa) if b == 1 else (b, pb) for a, pa, b, pb in net.spec.cables if 1 in (a, b)]
    net.autopilots[1].halt()
    net.run_for(1 * SEC)  # two probe periods unanswered: demoted
    for sw, port in facing:
        mon = net.autopilots[sw].monitoring.ports[port]
        assert mon.state is PortState.SWITCH_WHO
        assert mon.conn_skeptic.required > mon.conn_skeptic.base_required
    counts.reset()
    net.run_for(1 * SEC)
    assert counts.decisions == {(net.switches[sw].name, port): 100 for sw, port in facing}

    net.run_for(30 * SEC)  # the connectivity skeptic decays to its floor
    counts.reset()
    net.run_for(1 * SEC)
    assert counts.reads == 100 * cabled_ports(net)
    assert counts.decisions == {}


def test_a_cut_is_seen_by_the_first_sample_and_the_skip_returns(monkeypatch):
    counts = Counts(monkeypatch)
    net = Network(ring(4), seed=0)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    a, pa, b, pb = net.spec.cables[0]
    ends = {(net.switches[a].name, pa), (net.switches[b].name, pb)}

    net.cut_link(a, b)
    counts.reset()
    net.run_for(10 * MS)  # exactly one sample on every switch
    assert set(counts.decisions) == ends, "only, and both of, the cut ends are looked at"
    assert net.run_until_converged(timeout_ns=60 * SEC)

    # while the cable stays cut both ends are s.dead and counted every sample
    counts.reset()
    net.run_for(1 * SEC)
    assert counts.decisions == {end: 100 for end in ends}

    net.restore_link(a, b)
    net.run_for(40 * SEC)  # re-join, then both skeptics decay to their floor
    assert net.converged()
    counts.reset()
    net.run_for(1 * SEC)
    assert counts.reads == 100 * cabled_ports(net)
    assert counts.decisions == {}
