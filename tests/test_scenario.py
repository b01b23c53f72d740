"""The one measured scenario: ``drive_scenario``'s numbers are the numbers
the hand-rolled loops it replaced used to compute.

The scaling sweep's ``run_point`` and a dozen bench helpers each ran
converge -> cut -> reconverge themselves and read "how long did that
take" off two different definitions.  Their arithmetic is kept here as
the reference: on ring-4 and torus-3x4 the driver's fields must equal
it, and a fresh smoke-ladder sweep must write the committed
``benchmarks/results/scaling.txt`` byte for byte.
"""

from pathlib import Path

import pytest

from benchmarks import bench_util
from benchmarks.bench_scaling import run_sweep
from repro.constants import MS, SEC
from repro.network import Network
from repro.scenario import ScenarioResult, attach_pair, drive_scenario
from repro.topology.generators import resolve_topology


def hand_rolled(net, cut):
    """What the deleted copies computed, in their own words."""
    assert net.run_until_converged(timeout_ns=60 * SEC)
    tracer = net.tracer
    boot_spans = [s for s in tracer.all_spans() if s.closed]
    converge_ns = max(s.end_ns for s in boot_spans)
    boot_epochs = {s.key for s in tracer.all_spans()}
    packets_before = net.control.packets
    bytes_before = net.control.bytes
    retx_before = net.control.retransmissions()
    net.cut_link(*cut)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    fault_spans = [s for s in tracer.all_spans() if s.key not in boot_epochs and s.closed]
    last = max(fault_spans, key=lambda s: s.key)
    blackouts = [
        b["blackout_ns"]
        for s in fault_spans
        for b in tracer.blackouts(s.key).values()
        if b["blackout_ns"] is not None
    ]
    return ScenarioResult(
        converged=True,
        reconverged=True,
        cuts=[cut],
        converge_ns=converge_ns,
        # the benches' definition: reconfigure_once, reconfig_time, timed_reconfig
        final_epoch_ns=net.epoch_duration(),
        # run_point's definition
        reconfig_ns=last.end_ns - min(s.start_ns for s in fault_spans),
        blackout_ns=max(blackouts) if blackouts else 0,
        control_packets=net.control.packets - packets_before,
        control_bytes=net.control.bytes - bytes_before,
        control_retx=net.control.retransmissions() - retx_before,
    )


@pytest.mark.parametrize("topo", ["ring-4", "torus-3x4"])
def test_driver_fields_equal_the_hand_rolled_numbers(topo):
    spec = resolve_topology(topo)
    a, _pa, b, _pb = spec.cables[0]
    expected = hand_rolled(Network(spec, seed=5, control=True), (a, b))
    net = Network(spec, seed=5, control=True)
    outcome = drive_scenario(net, [(a, b)])
    assert outcome == expected
    assert outcome.final_epoch_ns == net.epoch_duration() > 0
    # the two definitions of "reconfiguration time" are both there, by name
    assert outcome.reconfig_ns > 0 and outcome.blackout_ns > 0
    assert outcome.control_packets > 0 and outcome.control_bytes > 0


def test_measurements_price_the_cut_not_the_load():
    """Load on either side of the cut moves none of the measurements --
    they are taken at reconvergence -- and the periodic pair rides along."""
    spec = resolve_topology("torus-3x4")
    quiet = drive_scenario(Network(spec, seed=5, control=True), [(0, 1)])
    net = Network(spec, seed=5, control=True)
    sinks = attach_pair(net, period_ns=5 * MS, data_bytes=256)
    loaded = drive_scenario(net, [(0, 1)], load_ns=int(0.2 * SEC))
    # h0's sink first: the one h0's LocalNet hands its datagrams to
    localnets = [net.drivers[name].on_packet.__self__ for name in ("h0", "h1")]
    assert [localnet.on_datagram.__self__ for localnet in localnets] == sinks
    assert all(s.count > 0 for s in sinks)
    for name in ("final_epoch_ns", "reconfig_ns", "blackout_ns"):
        assert getattr(loaded, name) == getattr(quiet, name), name


def test_observer_fields_are_none_when_the_observer_is_off():
    net = Network(resolve_topology("ring-4"), seed=5, telemetry=False)
    outcome = drive_scenario(net, [(0, 1)])
    assert outcome.converged and outcome.reconverged
    assert outcome.converge_ns is None
    assert outcome.reconfig_ns is None and outcome.blackout_ns is None
    assert outcome.control_packets is None
    assert outcome.control_bytes is None and outcome.control_retx is None
    # Network keeps its own epoch records, tracer or not
    assert outcome.final_epoch_ns == net.epoch_duration() > 0


def test_no_cut_measures_no_reconfiguration():
    outcome = drive_scenario(Network(resolve_topology("ring-4"), seed=5, control=True), [])
    assert outcome.converged and outcome.reconverged
    assert outcome.converge_ns > 0
    assert outcome.reconfig_ns is None and outcome.blackout_ns is None


def test_smoke_sweep_equals_the_document_the_old_run_point_wrote(tmp_path, monkeypatch):
    """One golden for the scaling measurement: a fresh smoke sweep writes
    the committed record of ``bench_scaling.py`` byte for byte -- every
    rung cell and every slope's r² and n, the numbers the old
    ``run_point`` wrote at ns precision."""
    monkeypatch.setattr(bench_util, "RESULTS_DIR", str(tmp_path))
    bench_util.report_document(run_sweep("smoke", 0))
    committed = Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "scaling.txt"
    assert (tmp_path / "scaling.txt").read_bytes() == committed.read_bytes()
