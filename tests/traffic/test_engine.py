"""The fluid traffic engine: observational, deterministic, SLO-accurate.

The two load-bearing properties here mirror the other obs layers:

* **disabled = free**: a network built with ``traffic=None`` is
  byte-identical to one that never heard of the feature (the
  ``repro.bench/1`` fingerprint documents serialize identically run to
  run);
* **fluid = observational**: enabling the fluid model changes no
  control-plane event -- the autopilot trace fingerprint is the same
  with the workload on or off.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.constants import SEC
from repro.network import Network
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result
from repro.topology.generators import resolve_topology
from repro.traffic.artifact import TRAFFIC_SCHEMA, validate_traffic
from repro.traffic.workload import TrafficConfig

TOPOLOGIES = ("ring-4", "torus-3x4", "src-lan-30")

SMALL_TRAFFIC = TrafficConfig(
    pattern="hotspot", flows=120, hosts=60, mean_flow_bytes=32_768, duration_ns=int(0.3 * SEC)
)


def test_traffic_kwarg_is_none_true_or_a_config():
    """Three forms, refused at build time otherwise -- not at the first solve."""
    spec = resolve_topology("ring-4")
    assert Network(spec).traffic is None
    assert Network(spec, traffic=True).traffic.config == TrafficConfig()
    assert Network(spec, traffic=SMALL_TRAFFIC).traffic.config is SMALL_TRAFFIC
    for junk in (False, 200, {"flows": 200}, "yes"):
        with pytest.raises(TypeError, match="TrafficConfig"):
            Network(spec, traffic=junk)


def _run_scenario(topology, traffic):
    """Boot-converge, load, cut the first cable, reconverge, load."""
    spec = resolve_topology(topology)
    net = Network(spec, seed=0, traffic=traffic)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    if net.traffic is not None:
        net.traffic.launch()
    net.run_for(int(0.4 * SEC))
    a, _pa, b, _pb = spec.cables[0]
    net.cut_link(a, b)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.run_for(int(0.4 * SEC))
    return net


def _core_fingerprint(net):
    """The control-plane history: every autopilot trace entry plus the
    epoch trajectory.  Identical fingerprints = identical runs."""
    trace = tuple(
        (e.component, e.local_time, e.event, e.detail)
        for ap in net.autopilots
        for e in ap.trace.entries()
    )
    return (net.current_epoch(), net.sim.now, trace)


def _bench_bytes(net):
    """A repro.bench/1 fingerprint document, serialized."""
    epoch, now_ns, trace = _core_fingerprint(net)
    doc = bench_document(
        bench="traffic-determinism",
        title="Scenario fingerprint",
        seed=0,
        results=[
            bench_result(
                name="fingerprint",
                title="Core history",
                headers=["epoch", "sim_now_ns", "trace_events"],
                rows=[[epoch, now_ns, len(trace)]],
                telemetry={
                    "trace_sha256": hashlib.sha256(repr(trace).encode()).hexdigest()
                },
            )
        ],
    )
    return json.dumps(doc, sort_keys=True).encode()


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_disabled_traffic_bench_documents_byte_identical(topology):
    first = _run_scenario(topology, traffic=None)
    second = _run_scenario(topology, traffic=None)
    assert first.traffic is None and second.traffic is None
    assert _bench_bytes(first) == _bench_bytes(second)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_fluid_traffic_is_observational(topology):
    without = _run_scenario(topology, traffic=None)
    with_traffic = _run_scenario(topology, traffic=SMALL_TRAFFIC)
    assert _core_fingerprint(without) == _core_fingerprint(with_traffic)


def test_fluid_run_is_deterministic():
    first = _run_scenario("ring-4", traffic=SMALL_TRAFFIC)
    second = _run_scenario("ring-4", traffic=SMALL_TRAFFIC)
    assert first.traffic_doc() == second.traffic_doc()


def test_blackout_cost_priced_against_reconfiguration_spans():
    # arrival window long enough that flows are still offering load when
    # the cut lands -- otherwise there is nothing to black out
    spec = resolve_topology("torus-3x4")
    traffic = replace(SMALL_TRAFFIC, flows=150, duration_ns=int(1.5 * SEC))
    net = Network(spec, seed=0, traffic=traffic)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.traffic.launch()
    net.run_for(int(0.5 * SEC))
    a, _pa, b, _pb = spec.cables[0]
    net.cut_link(a, b)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.run_for(int(1.2 * SEC))
    doc = validate_traffic(net.traffic_doc())
    assert doc["offered_bytes"] >= doc["delivered_bytes"] > 0
    assert doc["flows_completed"] > 0
    # the cut opened at least one reconfiguration span, and the outage
    # it caused priced some undelivered offered load into that window
    assert doc["windows"], "cut produced no reconfiguration window"
    cut_windows = [w for w in doc["windows"] if w["end_ns"] is not None]
    assert any(w["blackout_cost_bytes"] > 0 for w in cut_windows)
    # cumulative cost includes detection delay, so it dominates any
    # single in-span window
    assert doc["blackout_cost_bytes"] >= max(
        w["blackout_cost_bytes"] for w in cut_windows
    )
    for w in cut_windows:
        assert w["blackout_cost_bytes"] <= w["offered_bytes"] + 1e-6


def test_no_cut_no_blackout_cost():
    spec = resolve_topology("ring-4")
    net = Network(spec, seed=0, traffic=SMALL_TRAFFIC)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.traffic.launch()
    net.run_for(int(0.8 * SEC))
    doc = net.traffic_doc()
    assert doc["blackout_cost_bytes"] == 0
    assert doc["flows_unrouted"] == 0


def test_slo_violations_empty_after_reconvergence():
    net = _run_scenario("ring-4", traffic=SMALL_TRAFFIC)
    assert net.traffic.slo_violations() == []


def test_artifact_roundtrip(tmp_path):
    net = _run_scenario("ring-4", traffic=SMALL_TRAFFIC)
    path = str(tmp_path / "traffic.json")
    artifact.write(path, net.traffic_doc("roundtrip"))
    doc = artifact.read(path, TRAFFIC_SCHEMA)
    assert doc["name"] == "roundtrip"
    assert doc["schema"] == "repro.traffic/1"
