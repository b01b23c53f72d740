"""The flight recorder (ISSUE 3): rings, causality, export, profiler.

The scenario tests build a real installation (``Network(flight=True)``),
kill a link, and assert the §6.7 debugging story end to end: the
exported document passes the trace_event validator, flow arrows link
sends to receives, and ``why(table_load)`` walks back to the port death
that triggered the epoch.
"""

import json

import pytest

from repro.constants import SEC
from repro.network import Network
from repro.obs import artifact
from repro.obs import flight as flight_mod
from repro.obs.artifact import SchemaError
from repro.obs.flight import ComponentRing, FlightEvent, FlightRecorder, render_chain
from repro.obs.perfetto import (
    FLIGHT_SCHEMA,
    chains_from_trace,
    read_trace,
    trace_event_document,
)
from repro.obs.profiler import EventLoopProfiler
from repro.sim.engine import Simulator
from repro.sim.trace import CAT_EPOCH, CAT_PORT
from repro.topology.generators import ring


# -- the ring buffer -------------------------------------------------------------------


def test_ring_keeps_newest_and_counts_drops():
    ring_buf = ComponentRing("sw0", capacity=4)
    for i in range(10):
        ring_buf.append(FlightEvent(i, i * 10, "sw0", "msg", f"e{i}", None, {}))
    assert len(ring_buf) == 4
    assert ring_buf.total == 10
    assert ring_buf.dropped == 6
    assert [e.eid for e in ring_buf.events()] == [6, 7, 8, 9]


def test_ring_under_capacity_has_no_drops():
    ring_buf = ComponentRing("sw0", capacity=8)
    for i in range(3):
        ring_buf.append(FlightEvent(i, i, "sw0", "msg", "e", None, {}))
    assert ring_buf.dropped == 0
    assert [e.eid for e in ring_buf.events()] == [0, 1, 2]


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ComponentRing("sw0", capacity=0)


def test_recorder_eviction_prunes_index_and_truncates_chains():
    rec = FlightRecorder(capacity_per_component=3)
    eids = [rec.record(t, "sw0", "msg", f"e{t}") for t in range(6)]
    # the first three were evicted: no longer reachable by id
    for eid in eids[:3]:
        assert rec.get(eid) is None
    for eid in eids[3:]:
        assert rec.get(eid) is not None
    # each event chained to the previous one; the walk stops where
    # history was evicted instead of failing
    chain = rec.why(eids[-1])
    assert [e.eid for e in chain] == eids[3:]
    assert rec.total_dropped == 3
    assert rec.dropped_by_component() == {"sw0": 3}


# -- causality --------------------------------------------------------------------------


def test_parent_defaults_to_context_and_advance_controls_it():
    rec = FlightRecorder()
    root = rec.record(0, "sw0", "port", "port-state")
    send = rec.record(1, "sw0", "msg", "msg-send", advance=False)
    # advance=False: the send did not become the context
    child = rec.record(2, "sw0", "epoch", "epoch-start")
    assert rec.get(send).parent == root
    assert rec.get(child).parent == root
    # explicit parent crosses components (the packet stamp)
    recv = rec.record(3, "sw1", "msg", "msg-recv", parent=send)
    assert rec.get(recv).parent == send
    chain = [e.eid for e in rec.why(recv)]
    assert chain == [root, send, recv]


def test_context_flows_through_scheduled_events():
    sim = Simulator()
    rec = FlightRecorder()
    sim.recorder = rec

    seen = []

    def later():
        seen.append(rec.record(sim.now, "sw0", "epoch", "deferred"))

    def start():
        rec.record(sim.now, "sw0", "port", "root")
        sim.after(50, later)  # inherits the context at schedule time

    sim.after(10, start)
    sim.run()
    [deferred] = seen
    chain = rec.why(deferred)
    assert [e.name for e in chain] == ["root", "deferred"]


def test_render_chain_indents_by_depth():
    rec = FlightRecorder()
    rec.record(0, "sw0", "port", "a")
    eid = rec.record(1_000_000, "sw0", "epoch", "b", epoch=7)
    text = render_chain(rec.why(eid))
    lines = text.splitlines()
    assert "[sw0] a" in lines[0]
    assert lines[1].startswith("  ") and "b (epoch=7)" in lines[1]


# -- the disabled path -----------------------------------------------------------------


def test_disabled_recorder_allocates_no_events(monkeypatch):
    """With sim.recorder left None, no FlightEvent is ever constructed."""
    constructed = []

    class CountingEvent(FlightEvent):
        def __init__(self, *args, **kwargs):
            constructed.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(flight_mod, "FlightEvent", CountingEvent)
    net = Network(ring(3), seed=5)
    assert net.sim.recorder is None and net.flight is None
    assert net.sim.profiler is None and net.profiler is None
    net.run_for(3 * SEC)
    assert net.sim.events_dispatched > 0
    assert constructed == []


def test_recording_is_purely_observational():
    """The same seed with and without the recorder dispatches the same
    events and converges to the same epoch -- recording changes nothing."""
    plain = Network(ring(3), seed=9)
    recorded = Network(ring(3), seed=9, flight=True)
    plain.run_for(5 * SEC)
    recorded.run_for(5 * SEC)
    assert plain.sim.events_dispatched == recorded.sim.events_dispatched
    assert plain.current_epoch() == recorded.current_epoch()
    assert recorded.flight.total_recorded > 0


# -- the exported document --------------------------------------------------------------


@pytest.fixture(scope="module")
def cut_network():
    """ring-4, converged, then the 0-1 link cut and reconverged."""
    net = Network(ring(4), seed=0, flight=True)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    return net


def test_exported_trace_validates_and_links_the_epoch(cut_network, tmp_path):
    net = cut_network
    doc = trace_event_document(net.flight, merged_log=net.merged_log, name=net.spec.name)
    artifact.validate(doc, FLIGHT_SCHEMA)  # ph/ts/pid/tid/name structure, B/E pairs, flows
    assert doc["schema"] == FLIGHT_SCHEMA

    events = doc["traceEvents"]
    flow_starts = {e["id"] for e in events if e["ph"] == "s"}
    flow_finishes = {e["id"] for e in events if e["ph"] == "f"}
    assert flow_finishes, "message receives must emit flow-finish events"
    assert flow_finishes <= flow_starts

    # every switch appears as a named track
    names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"sw0", "sw1", "sw2", "sw3"} <= names
    # the §6.7 merged log is bridged in as its own track
    assert "merged-log (§6.7)" in names

    # round-trips through disk and the validator
    path = tmp_path / "ring4.trace.json"
    artifact.write(str(path), doc)
    loaded = read_trace(str(path))
    assert len(loaded["traceEvents"]) == len(events)
    # eid/parent survive in args for offline why()-style walks
    parents = chains_from_trace(loaded)
    assert parents and any(p is not None for p in parents.values())


def test_why_walks_table_load_back_to_port_death(cut_network):
    net = cut_network
    rec = net.flight
    final = rec.last(category=CAT_EPOCH, name="table-loaded")
    epoch = final.attrs["epoch"]
    loads = rec.events(category=CAT_EPOCH, name="table-loaded", epoch=epoch)
    assert len(loads) == 4, "every switch loads a table in the final epoch"
    for load in loads:
        chain = rec.why(load)
        port_deaths = [
            e for e in chain
            if e.category == CAT_PORT and e.attrs.get("old") == "s.switch.good"
        ]
        assert port_deaths, (
            f"{load.component}'s table load must chain back to the port death"
        )
        # the chain is causally ordered root-first
        eids = [e.eid for e in chain]
        assert eids == sorted(eids)
        # and crosses the wire at least once on the non-initiating switches
        if load.component != port_deaths[0].component:
            assert any(e.name == "msg-recv" for e in chain)


def test_wave_orders_the_propagation_front(cut_network):
    net = cut_network
    rec = net.flight
    epoch = rec.last(category=CAT_EPOCH, name="table-loaded").attrs["epoch"]
    front = rec.wave(epoch)
    assert {w["component"] for w in front} == {"sw0", "sw1", "sw2", "sw3"}
    times = [w["t_ns"] for w in front]
    assert times == sorted(times)
    # the initiators saw the epoch before anyone they told about it
    assert front[0]["event"] in ("epoch-start", "msg-recv")


# -- the structural validator -----------------------------------------------------------


def _minimal_doc(events):
    return {"schema": FLIGHT_SCHEMA, "traceEvents": events}


def test_validator_accepts_matched_slices_and_flows():
    artifact.validate(
        _minimal_doc(
            [
                {"ph": "B", "name": "epoch 1", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "s", "name": "m", "id": 7, "ts": 1, "pid": 1, "tid": 1},
                {"ph": "f", "name": "m", "id": 7, "ts": 2, "pid": 1, "tid": 2},
                {"ph": "E", "name": "epoch 1", "ts": 3, "pid": 1, "tid": 1},
            ]
        ),
        FLIGHT_SCHEMA,
    )


_B = {"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 1}


@pytest.mark.parametrize(
    "events, why",
    [
        (
            [{"ph": "Z", "name": "x", "ts": 0, "pid": 1, "tid": 1}],
            "$.traceEvents[0].ph: unknown phase 'Z'",
        ),
        (
            [{"ph": "i", "name": "x", "ts": -5, "pid": 1, "tid": 1}],
            "$.traceEvents[0].ts: expected non-negative number, got -5",
        ),
        (
            [{"ph": "i", "name": "x", "ts": 0, "pid": "p", "tid": 1}],
            "$.traceEvents[0].pid: expected int, got 'p'",
        ),
        (
            [{"ph": "i", "name": "", "ts": 0, "pid": 1, "tid": 1}],
            "$.traceEvents[0].name: expected non-empty string, got ''",
        ),
        (
            [{"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1}],
            "$.traceEvents[0].dur: expected non-negative number, got None",
        ),
        (
            [{"ph": "E", "name": "e", "ts": 0, "pid": 1, "tid": 1}],
            "$.traceEvents[0]: slice end with no open slice on track (1, 1)",
        ),
        (
            [_B, {"ph": "E", "name": "b", "ts": 1, "pid": 1, "tid": 1}],
            "$.traceEvents[1]: slice end 'b' does not match open 'a'",
        ),
        ([_B], "$: track (1, 1) ends with unclosed slices: ['a']"),
        (
            [_B, {"ph": "f", "name": "m", "id": 9, "ts": 0, "pid": 1, "tid": 1}],
            "$.traceEvents[1].id: flow finish 9 has no earlier start",
        ),
        (
            [_B, {"ph": "s", "name": "m", "id": 1.5, "ts": 1, "pid": 1, "tid": 1}],
            "$.traceEvents[1].id: expected int or string id, got 1.5",
        ),
    ],
    # explicit ids: the cases keep the names they are listed under
    ids=[
        "events0-unknown phase",
        "events1-non-negative",
        "events2-expected int",
        "events3-non-empty",
        "events4-dur",
        "events5-no open slice",
        "events6-does not match",
        "events7-unclosed",
        "events8-no earlier start",
        "flow-id-type",
    ],
)
def test_validator_rejects_malformed_documents(events, why):
    """Whole messages, path included: the hook formats a path only once
    an event has failed, and says exactly what it always said."""
    with pytest.raises(SchemaError) as excinfo:
        artifact.validate(_minimal_doc(events), FLIGHT_SCHEMA)
    assert str(excinfo.value) == why


def test_validator_rejects_wrong_schema():
    with pytest.raises(SchemaError, match="schema"):
        artifact.validate({"schema": "nope", "traceEvents": []}, FLIGHT_SCHEMA)


def test_trace_document_survives_ring_eviction():
    """Sends evicted from their ring must not leave dangling flow binds."""
    sim = Simulator()
    sim.recorder = recorder = FlightRecorder(capacity_per_component=64)
    net = Network(ring(3), seed=2, sim=sim)
    net.run_for(8 * SEC)
    assert recorder.total_dropped > 0
    doc = trace_event_document(recorder, merged_log=net.merged_log, name=net.spec.name)
    artifact.validate(doc, FLIGHT_SCHEMA)
    assert doc["otherData"]["dropped"] == recorder.total_dropped


# -- the profiler -----------------------------------------------------------------------


def test_profiler_accounts_handlers_and_throughput():
    net = Network(ring(3), seed=1, profile=True)
    net.run_for(3 * SEC)
    prof = net.profiler
    assert prof.events == net.sim.events_dispatched
    assert prof.events_per_sec() > 0
    hot = prof.hotspots()
    assert hot and hot[0].wall_ns >= hot[-1].wall_ns
    summary = prof.summary(limit=5)
    assert summary["events_per_sec"] > 0
    assert len(summary["hotspots"]) <= 5
    assert abs(sum(h["share"] for h in prof.summary()["hotspots"]) - 1.0) < 0.01
    json.dumps(summary)  # JSON-ready


def test_profiling_changes_nothing_the_simulation_does():
    """The profiler (and ``Simulator.run`` around it) is where the
    wall-clock rule is baselined away, so this is what holds it to
    "observational only": on and off give the same history, event for
    event, across a cut and reconvergence."""

    def history(profile):
        net = Network(ring(4), seed=1, profile=profile)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.cut_link(0, 1)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        logs = [
            [(e.component, e.local_time, e.event, e.detail) for e in ap.trace.entries()]
            for ap in net.autopilots
        ]
        return logs, net.sim.now, net.sim.events_dispatched

    assert history(profile=True) == history(profile=False)


def test_profiler_unit_accounting():
    prof = EventLoopProfiler()

    def a():
        pass

    def b():
        pass

    a.__qualname__, b.__qualname__ = "a", "b"
    prof.account_call(a, 100)
    prof.account_call(a, 300)
    prof.account_call(b, 50)
    assert prof.events == 3
    assert prof.handler_wall_ns == 450
    [a, b] = prof.hotspots()
    assert (a.category, a.count, a.wall_ns, a.mean_ns) == ("a", 2, 400, 200.0)
    assert b.category == "b"
    # no run time observed yet: throughput degrades to zero, not a crash
    assert prof.events_per_sec() == 0.0
