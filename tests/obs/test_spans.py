"""Span lifecycle and reconfiguration-tracer blackout accounting."""

from repro.obs.spans import ReconfigTracer


def test_span_lifecycle():
    tracer = ReconfigTracer()
    span = tracer.begin(key=1, time_ns=100, kind="test")
    assert not span.closed and span.duration_ns is None
    tracer.event(1, 150, "midpoint", component="sw0", progress=0.5)
    ended = tracer.end(1, 300, outcome="ok")
    assert ended is span
    assert span.closed and span.duration_ns == 200
    assert span.attrs["outcome"] == "ok"
    assert span.first_event("midpoint").component == "sw0"
    assert tracer.finished_spans() == [span]
    assert tracer.unclosed() == []


def test_events_on_unknown_or_closed_keys_are_ignored():
    tracer = ReconfigTracer()
    tracer.event("nope", 10, "x")          # never opened
    tracer.begin("k", 0)
    tracer.end("k", 5)
    tracer.event("k", 10, "late")          # already closed
    assert tracer.end("k", 20) is None     # double end
    [span] = tracer.finished_spans()
    assert span.events == []


def test_unclosed_span_detection():
    tracer = ReconfigTracer()
    tracer.begin("a", 0)
    tracer.begin("b", 10)
    tracer.end("b", 20)
    assert [s.key for s in tracer.unclosed()] == ["a"]
    # re-beginning a live key force-closes the old span and flags it
    tracer.begin("a", 30)
    flagged = [s for s in tracer.finished_spans() if s.attrs.get("unclosed")]
    assert len(flagged) == 1 and flagged[0].start_ns == 0
    assert len(tracer.unclosed()) == 2  # the flagged one + the new live one


def test_span_to_dict_round_trips_through_json():
    import json

    tracer = ReconfigTracer()
    span = tracer.begin(key=(1, 2), time_ns=5, topo=object())
    span.event(7, "e", "sw1", uid=0x50)
    tracer.end((1, 2), 9)
    [doc] = [s.to_dict() for s in tracer.all_spans()]
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["duration_ns"] == 4
    assert parsed["events"][0]["attrs"]["uid"] == 0x50


def _feed(tracer, t, comp, event, **attrs):
    tracer.switch_event(t, comp, event, attrs)


def test_reconfig_tracer_full_epoch():
    tr = ReconfigTracer()
    _feed(tr, 90, "sw1", "trigger", reason="port death")
    _feed(tr, 100, "sw0", "epoch-start", epoch=5)
    _feed(tr, 110, "sw1", "epoch-start", epoch=5)
    _feed(tr, 200, "sw0", "termination", epoch=5, switches=2)
    _feed(tr, 300, "sw0", "table-loaded", epoch=5)
    _feed(tr, 350, "sw1", "table-loaded", epoch=5)

    [span] = tr.finished_spans()
    assert span.key == 5
    names = [ev.name for ev in span.events]
    assert names == [
        "trigger", "epoch-start", "epoch-start",
        "tree-stable", "topology-at-root",
        "table-loaded", "table-loaded", "reopen",
    ]
    assert span.start_ns == 100 and span.end_ns == 350

    blackouts = tr.blackouts(5)
    assert blackouts["sw0"] == {"closed_ns": 100, "reopened_ns": 300, "blackout_ns": 200}
    assert blackouts["sw1"] == {"closed_ns": 110, "reopened_ns": 350, "blackout_ns": 240}

    [doc] = tr.span_summary()
    assert doc["max_blackout_ns"] == 240
    assert doc["tree_stable_ns"] == 200


def test_reconfig_tracer_unconfigure_recloses_the_shutter():
    tr = ReconfigTracer()
    _feed(tr, 0, "sw0", "epoch-start", epoch=1)
    _feed(tr, 10, "sw0", "table-loaded", epoch=1)
    # span closed (only participant reopened); a false-root unconfigure
    # in the same epoch would re-close -- model via a fresh epoch instead
    assert tr.blackouts(1)["sw0"]["blackout_ns"] == 10

    _feed(tr, 100, "sw0", "epoch-start", epoch=2)
    _feed(tr, 110, "sw1", "epoch-start", epoch=2)
    _feed(tr, 120, "sw1", "table-loaded", epoch=2)   # premature adoption
    _feed(tr, 130, "sw1", "unconfigure", epoch=2)    # false root detected
    _feed(tr, 200, "sw0", "table-loaded", epoch=2)
    _feed(tr, 210, "sw1", "table-loaded", epoch=2)
    blackout = tr.blackouts(2)
    assert blackout["sw0"]["blackout_ns"] == 100
    # sw1's clock restarts at the unconfigure, not the first epoch-start
    assert blackout["sw1"] == {"closed_ns": 130, "reopened_ns": 210, "blackout_ns": 80}


def test_reconfig_tracer_incomplete_epoch_stays_open():
    tr = ReconfigTracer()
    _feed(tr, 0, "sw0", "epoch-start", epoch=1)
    _feed(tr, 5, "sw1", "epoch-start", epoch=1)
    _feed(tr, 50, "sw0", "table-loaded", epoch=1)
    assert len(tr.unclosed()) == 1
    assert tr.blackouts(1)["sw1"]["blackout_ns"] is None
    [doc] = tr.span_summary()
    assert doc["end_ns"] is None and doc["max_blackout_ns"] == 50


def test_windows_are_the_closed_spans_and_the_newest_open_one():
    tr = ReconfigTracer()
    assert tr.windows() == []
    _feed(tr, 0, "sw0", "epoch-start", epoch=1)      # superseded, never closes
    _feed(tr, 10, "sw0", "epoch-start", epoch=2)
    _feed(tr, 20, "sw0", "table-loaded", epoch=2)
    assert [doc["key"] for doc in tr.windows()] == [2]
    _feed(tr, 30, "sw0", "epoch-start", epoch=3)     # the newest: still in progress
    assert [doc["key"] for doc in tr.windows()] == [2, 3]
    assert [doc["key"] for doc in tr.span_summary()] == [2, 1, 3]
