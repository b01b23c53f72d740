"""Network.telemetry(): the end-to-end observability contract (ISSUE 1)."""

import json

from repro.constants import SEC
from repro.network import Network
from repro.topology import line, ring


def converged_ring_after_cut(telemetry=True):
    net = Network(ring(4), seed=3, telemetry=telemetry)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    return net


def test_telemetry_reports_per_port_counters_and_spans():
    net = converged_ring_after_cut()
    snap = net.telemetry()

    assert snap["enabled"]
    # per-switch counters are present and consistent with the switch stats
    for i, switch in enumerate(net.switches):
        sw = snap["switches"][switch.name]
        assert sw["packets_forwarded"] == switch.packets_forwarded
        assert sw["configured"]
        # per-port: forwarded counts sum to at most the switch total (port
        # 0, the control processor, also forwards) and high-water marks
        # reflect real occupancy
        port_sum = sum(p["forwarded"] for p in sw["ports"].values())
        assert port_sum <= sw["packets_forwarded"]
        for p, port in sw["ports"].items():
            assert port["fifo_highwater_bytes"] >= 0
            assert port["stop_ns"] >= 0
            # every drained packet started a drain; drain starts that
            # never finished were destroyed by a reset/isolate drop
            started = port["cut_through"] + port["buffered"]
            dropped = sum(port["dropped"].values())
            assert port["drained"] <= started <= port["drained"] + dropped + 1
            assert isinstance(port["dropped"], dict)
    total_port_forwarded = sum(
        p["forwarded"]
        for sw in snap["switches"].values()
        for p in sw["ports"].values()
    )
    assert total_port_forwarded > 0

    # reset drops were recorded somewhere: every epoch clears tables with
    # reset_on_load=True, destroying any packet then in a FIFO
    assert any(sw["resets"] > 0 for sw in snap["switches"].values())

    # the cut-triggered epoch produced a closed reconfiguration span with
    # per-switch blackouts
    spans = {span["key"]: span for span in snap["reconfigurations"]}
    last_epoch = net.current_epoch()
    assert last_epoch in spans
    span = spans[last_epoch]
    assert span["end_ns"] is not None
    events = [ev["event"] for ev in span["events"]]
    assert "epoch-start" in events
    assert "tree-stable" in events
    assert "table-loaded" in events
    assert events[-1] == "reopen"
    blackouts = span["blackouts"]
    assert len(blackouts) == 4
    for entry in blackouts.values():
        assert entry["blackout_ns"] is not None
        assert 0 < entry["blackout_ns"] <= span["duration_ns"]
    assert span["max_blackout_ns"] == max(
        b["blackout_ns"] for b in blackouts.values()
    )

    # the registry carried the simulator's collectors, and nothing per grant
    metrics = snap["metrics"]
    assert metrics["enabled"]
    assert "sim_events_dispatched" in metrics["series"]
    assert "scheduler_wait_ns" not in metrics["series"]

    # the whole snapshot must be JSON-serializable (export contract)
    json.dumps(snap)


def test_telemetry_disabled_leaves_hot_paths_bare():
    net = converged_ring_after_cut(telemetry=False)
    assert net.tracer is None
    assert not net.sim.metrics.enabled
    for ap in net.autopilots:
        assert ap.on_obs_event is None
    for switch in net.switches:
        # the plain integer statistics still work
        assert switch.packets_forwarded > 0
    snap = net.telemetry()
    assert not snap["enabled"]
    assert snap["metrics"]["series"] == {}
    assert "reconfigurations" not in snap


def test_host_blackouts_single_and_dual_homed():
    net = Network(line(3), seed=1)
    net.add_host("single", [(2, 5)])
    net.add_host("dual", [(0, 5), (2, 6)])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)  # line splits; switches reconfigure per partition
    assert net.run_until_converged(timeout_ns=60 * SEC)
    epochs = net.tracer.epochs()
    assert epochs
    blackouts = net.host_blackouts(epochs[-1])
    assert set(blackouts) == {"single", "dual"}
    for value in blackouts.values():
        assert value is None or value >= 0
    # a closed epoch gives the single-homed host exactly its switch's window
    by_switch = net.tracer.blackouts(epochs[-1])
    sw2 = by_switch.get("sw2")
    if sw2 is not None and sw2["blackout_ns"] is not None:
        assert blackouts["single"] == sw2["blackout_ns"]


def test_restart_switch_rewires_telemetry():
    net = Network(ring(4), seed=2)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.crash_switch(1)
    net.restart_switch(1)
    assert net.autopilots[1].on_obs_event is not None
    assert net.run_until_converged(timeout_ns=120 * SEC)
    json.dumps(net.telemetry())


def test_dashboard_renders():
    from repro.obs.export import render_telemetry

    net = converged_ring_after_cut()
    text = render_telemetry(net.telemetry())
    # the same snapshot read back from a document, where JSON has made
    # the port and epoch keys strings, renders the same text
    assert render_telemetry(json.loads(json.dumps(net.telemetry()))) == text
    assert "reconfiguration epoch" in text
    assert "tree-stable" in text
    assert "sw0" in text
