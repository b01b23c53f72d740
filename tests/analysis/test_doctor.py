"""The network-doctor management tool."""


from repro.analysis.doctor import diagnose
from repro.constants import SEC
from repro.network import Network
from repro.topology import line, ring, torus
from repro.topology.generators import TopologySpec
from repro.types import Uid


def test_healthy_network_reports_healthy():
    net = Network(torus(2, 3))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(2 * SEC)
    report = diagnose(net)
    assert report.healthy, report.render()
    assert report.switches_seen == 6
    assert report.epoch == net.current_epoch()


def test_dead_port_reported():
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    report = diagnose(net)
    dead = [f for f in report.findings if "port dead" in f.what]
    assert len(dead) >= 2  # both ends of the cut cable


def test_srp_sweep_compares_with_the_switch_it_crawled_from():
    """With sw0, sw1 and sw3 down the sweep starts at sw2, the first live
    switch, and live switch 2 would be none: the crawl from sw2 must be
    held to sw2's own map, not to a live list's third entry."""
    net = Network(line(5))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.crash_switch(0)
    net.crash_switch(1)
    net.crash_switch(3)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    report = diagnose(net)
    sweep = [f for f in report.findings if f.where == "srp-sweep"]
    assert sweep == [], report.render()


def test_looped_cable_reported():
    spec = TopologySpec(uids=[Uid(0x1000), Uid(0x1001)], name="loopy")
    spec.cables = [(0, 1, 1, 1), (0, 2, 0, 3)]  # one real link + a loop
    net = Network(spec)
    net.run_for(20 * SEC)
    report = diagnose(net)
    loops = [f for f in report.findings if "loop" in f.what]
    assert len(loops) >= 1


def test_elevated_skeptic_reported():
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    for _ in range(3):
        net.cut_link(0, 1)
        net.run_for(2 * SEC)
        net.restore_link(0, 1)
        net.run_for(4 * SEC)
    report = diagnose(net)
    elevated = [f for f in report.findings if "skeptic elevated" in f.what]
    assert elevated, report.render()


def test_mid_reconfiguration_reported_critical():
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.autopilots[0].trigger_reconfiguration("doctor-test")
    # diagnose immediately, before the epoch completes
    report = diagnose(net)
    assert not report.healthy
    criticals = [f for f in report.findings if f.severity == "critical"]
    assert any("not configured" in f.what for f in criticals)


def test_partitions_on_their_own_epochs_are_healthy():
    """Section 6.6 configures each physical partition as its own network,
    with its own epoch: a line cut in two places, one cut at a time, ends
    with sw0 alone an epoch behind the rest, and that is no disagreement."""
    net = Network(line(5), seed=1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    for a, b in ((0, 1), (3, 4)):
        net.cut_link(a, b)
        assert net.run_until_converged(timeout_ns=60 * SEC)
    assert len({ap.epoch for ap in net.alive_autopilots()}) > 1
    report = diagnose(net)
    assert report.healthy, report.render()
    assert report.epoch == net.current_epoch()
    assert any("3 distinct topology views" in f.what for f in report.findings)


def test_switches_of_one_view_on_different_epochs_are_critical():
    net = Network(line(3), seed=1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    epoch = net.current_epoch()
    net.autopilots[2].engine.epoch = epoch + 1  # planted: same view, next epoch
    report = diagnose(net)
    assert not report.healthy
    assert [f.what for f in report.findings if f.severity == "critical"] == [
        f"switches disagree on the epoch: {[epoch, epoch + 1]}"
    ]


def test_render_is_readable():
    net = Network(ring(3))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    text = diagnose(net).render()
    assert "health report" in text
    assert "3 switches" in text


def test_all_sections_render_end_to_end(tmp_path):
    """ISSUE 5/6/8 satellite, re-pointed by ISSUE 19 at the documents:
    what used to be the doctor's sections -- telemetry with the
    control-plane cost ledger, flight, timeseries, in-band path
    telemetry, campaign -- renders from what a torus-3x4 run recorded,
    through the one renderer each schema declares."""
    from repro.chaos.campaign import CampaignConfig, CampaignRunner, campaign_report
    from repro.obs import artifact
    from repro.obs.export import render_telemetry

    net = Network(
        torus(3, 4), seed=0, telemetry=True, flight=True, profile=True,
        timeseries=True, inband=True, control=True,
    )
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)

    dashboard = render_telemetry(net.telemetry())
    assert "telemetry @" in dashboard
    assert "reconfiguration epoch" in dashboard
    assert "control packets" in dashboard
    assert "election" in dashboard  # phase breakdown is present
    # a snapshot taken without the control ledger has no such section
    assert "control packets" not in render_telemetry(Network(ring(3)).telemetry())

    paths = artifact.render(net.inband_doc())
    assert "in-band path telemetry" in paths

    flight = artifact.render(net.export_flight_trace(str(tmp_path / "trace.json")))
    assert "events recorded" in flight
    # the per-switch successor of the doctor's one "deepest causal chain"
    assert flight.count("why did sw") == 12 and "port-state" in flight

    series = artifact.render(net.export_timeseries(str(tmp_path / "timeseries.json")))
    assert "samples every" in series
    assert "sw0" in series and "epoch" in series

    runner = CampaignRunner(CampaignConfig(topology="ring-4", schedules=1, seed=0))
    runner.run()
    campaign = campaign_report(runner.document())
    assert "chaos campaign" in campaign
    assert "schedules passed" in campaign
    assert "Chaos campaign on ring-4" in artifact.render(runner.document())

    report = diagnose(net)
    assert report.healthy, report.render()


def test_sweep_report_renders_scaling_curves():
    """A sweep's ``scaling`` document renders its rungs and slopes tables."""
    from repro.obs import artifact
    from benchmarks.bench_scaling import METRICS, run_sweep

    doc = run_sweep(ladder="doctor", seed=0, topologies=("ring-4", "torus-3x4"))
    lines = artifact.render(doc).splitlines()
    assert lines[0] == (
        "bench scaling: Reconfiguration scaling curves "
        "(doctor ladder: ring-4, torus-3x4) (seed 0)"
    )
    rungs = lines.index("== Reconfiguration scaling curves (doctor ladder: ring-4, torus-3x4) ==")
    assert lines[rungs + 1].split() == ["topology", "switches", "links", "status", *METRICS]
    assert [line.split()[:4] for line in lines[rungs + 3:rungs + 5]] == [
        ["ring-4", "4", "4", "ok"],
        ["torus-3x4", "12", "24", "ok"],
    ]
    slopes = lines.index("== Scaling exponents: log-log least-squares slope vs switch count ==")
    assert lines[slopes + 1].split() == ["metric", "slope", "r2", "points"]
    fitted = [line.split() for line in lines[slopes + 3:slopes + 3 + len(METRICS)]]
    assert [row[0] for row in fitted] == list(METRICS)
    assert all(row[3] == "2" for row in fitted)
