"""The longitudinal sampler: rings, alignment, artifact, acceptance."""

import json

import pytest

from repro.constants import MS, SEC
from repro.network import Network
from repro.obs import artifact, timeseries
from repro.obs.artifact import SchemaError
from repro.obs.flight import Ring
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesData,
    TimeSeries,
    TimeSeriesSampler,
    read_timeseries,
    render_frame,
    sparkline,
    switch_names,
)
from repro.sim.engine import Simulator
from repro.topology import ring, torus
from tests.checkers import sampler_view, series_max, series_min, series_window


# -- rings ----------------------------------------------------------------------------


def test_ring_overflow_evicts_oldest_and_counts():
    r = Ring(4)
    for i in range(10):  # a gap (None sample) is held like any value
        r.append(None if i == 8 else float(i))
    assert len(r) == 4
    assert r.items() == [6.0, 7.0, None, 9.0]
    assert r.dropped == 6
    assert r.total == 10


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        Ring(-1)


# -- the sampler on a bare simulator ---------------------------------------------------


@pytest.fixture
def every_10ms(monkeypatch):
    monkeypatch.setattr(timeseries, "INTERVAL_NS", 10 * MS)


def test_sampler_ticks_and_collectors_align(every_10ms):
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    state = {"v": 0.0}
    sampler.add_collector("v", lambda: state["v"])
    sampler.start()
    sim.at(35 * MS, lambda: state.update(v=5.0))
    sim.run(until=60 * MS)
    # ticks at 10,20,30,40,50,60 ms
    assert sampler.ticks() == [10 * MS, 20 * MS, 30 * MS, 40 * MS, 50 * MS, 60 * MS]
    series = sampler_view(sampler).series("v")
    assert series.values == [0.0, 0.0, 0.0, 5.0, 5.0, 5.0]


def test_late_series_left_padded_in_document(every_10ms):
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    sampler.add_collector("early", lambda: 1.0)
    sampler.start()
    sim.run(until=30 * MS)
    sampler.add_collector("late", lambda: 2.0)
    sim.run(until=60 * MS)
    doc = sampler.document()
    artifact.validate(doc, TIMESERIES_SCHEMA)
    by_name = {s["name"]: s for s in doc["series"]}
    assert by_name["early"]["values"] == [1.0] * 6
    assert by_name["late"]["values"] == [None, None, None, 2.0, 2.0, 2.0]


def test_max_series_cap_refuses_and_counts(every_10ms, monkeypatch):
    monkeypatch.setattr(timeseries, "MAX_SERIES", 2)
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    sampler.add_collector("a", lambda: 1.0)
    sampler.add_collector("b", lambda: 2.0)
    sampler.add_collector("c", lambda: 3.0)  # refused
    sampler.start()
    sim.run(until=20 * MS)
    doc = sampler.document()
    assert [entry["name"] for entry in doc["series"]] == ["a", "b"]
    assert doc["dropped_series"] == sampler.dropped_series == 1


def test_mark_ring_is_bounded(monkeypatch):
    monkeypatch.setattr(timeseries, "MARK_CAPACITY", 3)
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    for i in range(7):
        sampler.mark(i, "sw0", f"event-{i}")
    doc = sampler.document()
    assert [m["event"] for m in doc["marks"]] == ["event-4", "event-5", "event-6"]


def test_stop_cancels_future_samples(every_10ms):
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    sampler.add_collector("v", lambda: 1.0)
    sampler.start()
    sim.run(until=20 * MS)
    sampler.stop()
    sim.run(until=100 * MS)
    assert sampler.samples_taken == 2


# -- query API -------------------------------------------------------------------------


def _data(ticks, values):
    return SeriesData("s", {}, "gauge", ticks, values)


def test_window_and_aggregates():
    s = _data([10, 20, 30, 40], [1.0, None, 5.0, 2.0])
    assert s.points() == [(10, 1.0), (30, 5.0), (40, 2.0)]  # gaps skipped
    assert series_window(s, 20, 40).points() == [(30, 5.0)]
    assert s.last() == 2.0 and series_max(s) == 5.0 and series_min(s) == 1.0
    assert _data([10], [None]).last() is None


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        _data([10, 20], [1.0])


# -- the artifact ----------------------------------------------------------------------


def _tiny_doc():
    sim = Simulator()
    sampler = TimeSeriesSampler(sim)
    sampler.add_collector("v", lambda: 1.0, switch="sw0")
    sampler.start()
    sampler.mark(5 * MS, "sw0", "epoch-started")
    sim.run(until=30 * MS)
    return sampler.document(name="tiny")


def test_artifact_round_trip(every_10ms, tmp_path):
    doc = _tiny_doc()
    path = tmp_path / "ts.json"
    artifact.write(str(path), doc)
    loaded = read_timeseries(str(path))
    assert loaded == doc
    ts = TimeSeries(read_timeseries(str(path)))
    assert ts.series("v", switch="sw0").values == [1.0, 1.0, 1.0]
    assert ts.marks()[0]["event"] == "epoch-started"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema="bogus/9"),
        lambda d: d.update(interval_ns=0),
        lambda d: d.update(ticks=[30, 20, 10]),
        lambda d: d.update(ticks=["a"]),
        lambda d: d["series"][0].update(values=[1.0]),  # length mismatch
        lambda d: d["series"][0].update(name=""),
        lambda d: d["series"][0]["values"].__setitem__(0, "oops"),
        lambda d: d["series"][0].update(dropped=-1),
        lambda d: d.update(marks=[{"t_ns": "late", "component": "x", "event": "y"}]),
    ],
)
def test_validator_rejects_malformed(every_10ms, mutate):
    doc = _tiny_doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        artifact.validate(doc, TIMESERIES_SCHEMA)


# -- acceptance: the full network path -------------------------------------------------


def test_network_records_cut_and_epoch(tmp_path):
    """ISSUE 5 acceptance: a torus-3x4 run with the sampler on produces a
    validating artifact whose port-state series captures a mid-run link
    cut and the subsequent epoch."""
    net = Network(torus(3, 4), seed=0, timeseries=True)
    net.sim.at(1 * SEC, net.cut_link, 0, 1)
    net.run_for(3 * SEC)

    path = tmp_path / "torus.timeseries.json"
    net.export_timeseries(str(path))
    ts = TimeSeries(read_timeseries(str(path)))  # validates on load

    # the cut is visible: sw0 loses a good port for good
    good = ts.series("ports_in_state", switch="sw0", state="s.switch.good")
    before = series_window(good, 0, 1 * SEC).last()
    after = good.last()
    assert before == 4.0 and after == 3.0

    # the subsequent epoch is visible: the epoch series strictly grows
    # across the cut on every switch
    for name in ("sw0", "sw1"):
        epoch = ts.series("epoch", switch=name)
        assert epoch.last() > series_window(epoch, 0, 1 * SEC).last()

    # the blackout flag pulsed during reconfiguration and cleared
    dark = ts.series("blackout_in_progress", switch="sw0")
    assert series_max(dark) == 1.0 and dark.last() == 0.0

    # span marks landed in the ring
    events = {m["event"] for m in ts.marks()}
    assert "table-loaded" in events


def test_disabled_sampler_leaves_run_byte_identical():
    """ISSUE 5 acceptance (determinism): with the sampler off, telemetry
    output is byte-identical whether or not the module is in play."""
    def run(timeseries):
        net = Network(ring(4), seed=7, telemetry=True, timeseries=timeseries)
        net.sim.at(1 * SEC, net.cut_link, 0, 1)
        net.run_for(4 * SEC)
        snap = net.telemetry()
        return json.dumps(snap, sort_keys=True, default=str)

    assert run(False) == run(None)


def test_sampler_survives_switch_restart():
    """Collectors late-bind through the autopilot list, so a restarted
    switch keeps reporting without re-registration (None while dead)."""
    net = Network(ring(4), seed=0, timeseries=True)
    net.run_for(1 * SEC)
    net.crash_switch(1)
    net.run_for(1 * SEC)
    net.restart_switch(1)
    net.run_for(3 * SEC)
    epoch = sampler_view(net.sampler).series("epoch", switch="sw1")
    values = epoch.values
    assert None in values  # dead window
    assert values[-1] is not None  # reporting again after restart



def test_every_series_samples_once_per_tick_across_faults():
    """A cut, a crash and a host cabled after ``start()``: every series
    is a collector that appends once per tick (the late FIFO pair is
    left-padded), and fault counts are not sampled."""
    net = Network(ring(4), seed=0, timeseries=True)
    net.run_for(1 * SEC)
    net.cut_link(0, 1)
    net.run_for(1 * SEC)
    net.crash_switch(2)
    net.add_host("h0", [(3, net.spec.free_ports(3)[0])])
    net.run_for(2 * SEC)
    doc = artifact.validate(net.sampler.document(), TIMESERIES_SCHEMA)
    assert {len(entry["values"]) for entry in doc["series"]} == {len(doc["ticks"])}
    assert doc["samples_taken"] == len(doc["ticks"])
    late = {
        entry["labels"]["switch"]
        for entry in doc["series"]
        if entry["name"] == "fifo_occupancy_bytes" and entry["values"][0] is None
    }
    assert late == {"sw3"}  # the host's port, cabled after start()
    assert "faults_injected" not in {entry["name"] for entry in doc["series"]}
    assert net.faults == {"cut-link": 1, "crash-switch": 1}

# -- the dashboard frame: pure rendering over sampler views ---------------------------


def test_sparkline_scaling_and_gaps(monkeypatch):
    assert sparkline([0, 1, 2, 3, None, 4]) == " ▂▄▆·█"
    assert sparkline([]) == ""
    assert sparkline([None, None]) == "··"
    assert sparkline([5.0, 5.0]) == "██"  # constant positive saturates
    assert sparkline([0.0, 0.0]) == "  "
    # the floor is 0 for positive data, the window's minimum below it
    assert sparkline([2.0, 4.0]) == "▄█"
    assert sparkline([-4.0, 0.0]) == " █"
    # window: only the last SPARK_WIDTH samples render
    monkeypatch.setattr(timeseries, "SPARK_WIDTH", 8)
    assert len(sparkline(list(range(100)))) == 8


def _recorded_network():
    net = Network(ring(4), seed=0, timeseries=True)
    net.sim.at(1 * SEC, net.cut_link, 0, 1)
    net.run_for(3 * SEC)
    return net


def test_render_frame_is_pure_and_complete():
    ts = sampler_view(_recorded_network().sampler)
    frame = render_frame(ts, "ring-4")
    assert frame == render_frame(ts, "ring-4")  # pure: same view, same pixels
    assert "\x1b" not in frame  # plain text: no terminal escapes
    assert frame.startswith("ring-4  t=+3.000s  ticks=60  interval=50ms\n")
    for name in ("sw0", "sw1", "sw2", "sw3"):
        assert name in frame
    assert "epoch" in frame and "fifo^" in frame
    assert "recent reconfiguration events" in frame
    assert "table-loaded" in frame


def test_switch_names_natural_order():
    net = _recorded_network()
    assert switch_names(sampler_view(net.sampler)) == ["sw0", "sw1", "sw2", "sw3"]
