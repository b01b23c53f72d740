"""The questions the observers exist to answer, asked of one ``run``.

Section 6.7's debugging story is one log per switch and one tool that
reads them all; the north star asks "why was this reconfiguration slow /
this packet lost / this run slower" of a single coherent artifact.  Each
question below is a function ``(docs) -> answer`` over the documents of
one ``python -m repro.obs run --topo torus-3x4 --cut 0-1`` directory --
never a live ``Network`` -- and each has a test holding its answer to
something this scenario must show (the fault epoch's number, a blackout
above zero, a path change in that epoch).

A *signal* is one of the run's documents, or a section of its bench
document (``bench:<section>``), and belongs to exactly one observer, named
by the ``Network`` flag that turns it on (``SIGNALS``).  The ablation
drops each signal in turn and asks every question again; a question loses
its answer when it raises ``KeyError`` or returns ``None``.  ``NEEDS`` is
the committed outcome, and every signal must be needed by some question:
an observer whose signals no question needs is deleted, which is how the
in-band document's ``recent`` hop stacks, the ``.paths.trace.json``
document drawn from them and the ``watch`` replay of the timeseries
document went.

Kept, and why:

* ``inband.SloTracker`` beside ``traffic.engine``'s SLO accounting: the
  tracker counts real packets as hosts accept them, the engine prorates
  fluid segments; they are two sources, not one restated, and the
  frozen ``observed_torus`` workload reads ``net.inband.slo.drops``.
* ``repro.obs.export`` beside ``repro.obs.artifact``: it is the
  ``repro.bench/1`` provider (schema, renderer, builders), like every
  other provider module, and the artifact module knows no schema.
* the timeseries sampler: it alone answers the over-time question.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import Network
from repro.obs import artifact
from repro.obs.perfetto import recorder_from_trace
from repro.obs.profiler import EventLoopProfiler
from repro.obs.timeseries import GOOD_STATE, TimeSeries, switch_names
from repro.sim.trace import CAT_EPOCH, CAT_LOG, CAT_PORT
from repro.topology import line
from tests.checkers import series_max, series_window

TOPO = "torus-3x4"

#: every signal of a run, and the observer (``Network`` flag) it belongs to
SIGNALS = {
    "trace": "flight",
    "timeseries": "timeseries",
    "inband": "inband",
    "bench": "telemetry",
    "bench:reconfigurations": "telemetry",
    "bench:host_blackouts": "telemetry",
    "bench:control": "control",
    "bench:hotspots": "profile",
}
#: the observers ``run`` turns on, each a ``Network`` flag
OBSERVERS = {"telemetry", "flight", "profile", "timeseries", "inband", "control"}

#: the phases of a reconfiguration span, in order (``repro.obs.spans``)
PHASES = ("trigger", "epoch-start", "tree-stable", "topology-at-root", "table-loaded", "reopen")


# -- reading a run directory ---------------------------------------------------------


def load(directory):
    """``{kind: document}`` for every ``<topo>.<kind>.json`` of a run."""
    return {
        name[len(TOPO) + 1 : -len(".json")]: artifact.read(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
    }


def without(docs, signal):
    """``docs`` minus one signal, sharing everything else: a document, a
    top-level key of one, a bench result or a telemetry section."""
    kind, _, part = signal.partition(":")
    out = {k: v for k, v in docs.items() if k != kind}
    if part:
        doc = {k: v for k, v in docs[kind].items() if k != part}
        if "results" in doc:
            doc["results"] = [
                {**r, "telemetry": {k: v for k, v in r["telemetry"].items() if k != part}}
                for r in doc["results"]
                if r["name"] != part
            ]
        out[kind] = doc
    return out


def result(docs, name):
    """The bench document's result ``name``."""
    for each in docs["bench"]["results"]:
        if each["name"] == name:
            return each
    raise KeyError(name)


def telemetry(docs):
    return result(docs, "scenario")["telemetry"]


def fault_span(docs):
    """The reconfiguration the cut caused: the highest epoch that closed."""
    closed = [s for s in telemetry(docs)["reconfigurations"] if s["end_ns"] is not None]
    return max(closed, key=lambda span: span["key"])


# -- the questions -------------------------------------------------------------------


def why_the_fault_epoch_was_slow(docs):
    """Time between the span's phases, and control packets by phase."""
    span = fault_span(docs)
    first = {}
    for event in span["events"]:
        first.setdefault(event["event"], event["t_ns"])
    first["table-loaded"] = max(
        e["t_ns"] for e in span["events"] if e["event"] == "table-loaded"
    )
    steps = {f"{a} -> {b}": first[b] - first[a] for a, b in zip(PHASES, PHASES[1:])}
    control = telemetry(docs)["control"]["epochs"][str(span["key"])]["by_phase"]
    return {
        "epoch": span["key"],
        "steps": steps,
        "control_packets": {phase: cell["packets"] for phase, cell in control.items()},
    }


def why_each_switch_loaded_its_table(docs):
    """Each table load of the last epoch walked back to its port-state
    transition, and the section 6.7 merged log over that epoch."""
    rec = recorder_from_trace(docs["trace"])
    epoch = rec.last(category=CAT_EPOCH, name="table-loaded").attrs["epoch"]
    roots = {}
    for load in rec.events(category=CAT_EPOCH, name="table-loaded", epoch=epoch):
        port = next(e for e in rec.why(load) if e.category == CAT_PORT)
        roots[load.component] = (
            f"{port.component}.p{port.attrs['port']} {port.attrs['old']}->{port.attrs['new']}"
        )
    times = [e.t_ns for e in rec.events(epoch=epoch)]
    merged = [
        (e["args"]["component"], e["name"])
        for e in docs["trace"]["traceEvents"]
        if e.get("cat") == CAT_LOG and min(times) <= round(e["ts"] * 1000) <= max(times)
    ]
    return {"epoch": epoch, "roots": roots, "merged_log": merged}


def why_packets_were_lost(docs):
    """Client drops by cause, and the switch ports that dropped."""
    where = {}
    for name, switch in telemetry(docs)["switches"].items():
        for port, cell in switch["ports"].items():
            for cause, count in cell["dropped"].items():
                where.setdefault(cause, {})[f"{name}.p{port}"] = count
    return {"by_cause": docs["inband"]["slo"]["drops"], "where": where}


def why_this_run_is_slower(docs):
    """Events per second, and the handlers the wall time went to."""
    hotspots = result(docs, "hotspots")
    handler, share = (hotspots["headers"].index(c) for c in ("handler", "share"))
    return {
        "events_per_sec": hotspots["telemetry"]["events_per_sec"],
        "shares": {row[handler]: row[share] for row in hotspots["rows"]},
    }


def who_went_dark(docs):
    """Per switch and per host, how long the fault epoch kept it dark."""
    span = fault_span(docs)
    return {
        "epoch": span["key"],
        "switches": {sw: b["blackout_ns"] for sw, b in span["blackouts"].items()},
        "hosts": telemetry(docs)["host_blackouts"][str(span["key"])],
    }


def what_the_blackout_cost_traffic(docs):
    """The last closed epoch's SLO window: deliveries and drops inside it."""
    closed = [w for w in docs["inband"]["slo"]["windows"] if w["end_ns"] is not None]
    if not closed:
        return None
    window = max(closed, key=lambda w: w["epoch"])
    return {key: window[key] for key in ("epoch", "max_blackout_ns", "deliveries", "drops")}


def which_flows_changed_path(docs):
    """(src uid, dest uid, epoch) of every detected path change."""
    return sorted(
        (flow["src_uid"], flow["dest_uid"], change["epoch"])
        for flow in docs["inband"]["flows"]
        for change in flow["changes"]
    )


def the_hottest_link(docs):
    """The link with the deepest mean FIFO at forwarding time."""
    links = docs["inband"]["links"]
    if not links:
        return None
    hottest = max(links, key=lambda e: (e["mean_depth"], e["link"]))
    return hottest["link"], hottest["mean_depth"]


def fifo_and_good_ports_across_the_cut(docs):
    """The switches that lost a good port, the tick that first shows it,
    and the FIFO high-water (the deepest any receive FIFO got; the level
    itself is sampled between packets, so at zero here) before that tick
    and at the end."""
    ts = TimeSeries(docs["timeseries"])
    lost, cut = {}, None
    for name in switch_names(ts):
        good = ts.series("ports_in_state", switch=name, state=GOOD_STATE)
        peak = series_max(good)
        if good.last() < peak:
            lost[name] = (peak, good.last())
            at_peak = next(t for t, v in good.points() if v == peak)
            dropped = next(t for t, v in good.points() if t > at_peak and v < peak)
            cut = dropped if cut is None else min(cut, dropped)
    if cut is None:
        return None
    fifos = ts.select("fifo_highwater_bytes")
    return {
        "cut_tick_ns": cut,
        "good_ports": lost,
        "fifo_highwater_before": max(series_max(series_window(s, 0, cut)) or 0.0 for s in fifos),
        "fifo_highwater_at_end": max(s.last() or 0.0 for s in fifos),
    }


QUESTIONS = (
    why_the_fault_epoch_was_slow,
    why_each_switch_loaded_its_table,
    why_packets_were_lost,
    why_this_run_is_slower,
    who_went_dark,
    what_the_blackout_cost_traffic,
    which_flows_changed_path,
    the_hottest_link,
    fifo_and_good_ports_across_the_cut,
)

#: question -> the signals it cannot answer without (the ablation's outcome)
NEEDS = {
    "why_the_fault_epoch_was_slow": {"bench", "bench:reconfigurations", "bench:control"},
    "why_each_switch_loaded_its_table": {"trace"},
    "why_packets_were_lost": {"bench", "inband"},
    "why_this_run_is_slower": {"bench", "bench:hotspots"},
    "who_went_dark": {"bench", "bench:reconfigurations", "bench:host_blackouts"},
    "what_the_blackout_cost_traffic": {"inband"},
    "which_flows_changed_path": {"inband"},
    "the_hottest_link": {"inband"},
    "fifo_and_good_ports_across_the_cut": {"timeseries"},
}


def unanswered(docs):
    """The questions that lose their answer on ``docs``."""
    lost = set()
    for question in QUESTIONS:
        try:
            answer = question(docs)
        except KeyError:
            answer = None
        if answer is None:
            lost.add(question.__name__)
    return lost


def ablation(docs, signals):
    """question -> the signals whose removal costs it its answer."""
    needs = {question.__name__: set() for question in QUESTIONS}
    for signal in signals:
        for name in unanswered(without(docs, signal)):
            needs[name].add(signal)
    return needs


# -- one run, every question -----------------------------------------------------------


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The documents of one ``run`` in a process of its own, as the CLI
    is used."""
    out = tmp_path_factory.mktemp("run")
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "run", "--topo", TOPO, "--cut", "0-1",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return load(out)


def build_with_each_observer():
    """Build a line-2 ``Network`` per observer flag: a flag ``Network``
    does not take raises ``TypeError``, whatever wraps ``__init__``."""
    for flag in sorted(OBSERVERS):
        Network(line(2), **{flag: True})


def test_the_run_holds_one_document_per_observer_document(docs):
    assert sorted(docs) == ["bench", "inband", "timeseries", "trace"]
    assert set(SIGNALS.values()) == OBSERVERS, "every observer run turns on has a signal"
    build_with_each_observer()


def test_the_observer_flags_hold_through_a_wrapped_init(monkeypatch):
    """A tracer or profiler may wrap ``Network.__init__`` without
    ``functools.wraps``, which hides its parameters from ``__code__``."""
    init = Network.__init__

    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)

    monkeypatch.setattr(Network, "__init__", wrapped)
    build_with_each_observer()
    with pytest.raises(TypeError):
        Network(line(2), watch=True)


def test_every_question_answers_on_the_whole_directory(docs):
    assert unanswered(docs) == set()


def test_the_ablation_equals_needs_and_every_signal_is_needed(docs):
    assert ablation(docs, SIGNALS) == NEEDS
    needed = set().union(*NEEDS.values())
    assert sorted(set(SIGNALS) - needed) == [], "a signal no question needs: delete its observer"


def test_why_the_fault_epoch_was_slow(docs):
    answer = why_the_fault_epoch_was_slow(docs)
    assert answer["epoch"] == 5
    steps = answer["steps"]
    assert list(steps) == [f"{a} -> {b}" for a, b in zip(PHASES, PHASES[1:])]
    assert all(ns >= 0 for ns in steps.values())
    assert sum(steps.values()) == fault_span(docs)["duration_ns"] > 0
    # most of the epoch is spent loading tables once the topology is at the root
    assert max(steps, key=steps.get) == "topology-at-root -> table-loaded"
    control = answer["control_packets"]
    assert control["election"] > 0 and control["loading"] > 0


def test_why_each_switch_loaded_its_table(docs):
    answer = why_each_switch_loaded_its_table(docs)
    assert answer["epoch"] == 5
    assert sorted(answer["roots"]) == sorted(f"sw{i}" for i in range(12))
    # every load goes back to a port the cut killed, at one of its two ends
    assert set(answer["roots"].values()) <= {
        "sw0.p1 s.switch.good->s.dead", "sw1.p1 s.switch.good->s.dead",
    }
    merged = answer["merged_log"]
    assert ("sw0", "reconfig-trigger") in merged and ("sw1", "reconfig-trigger") in merged
    assert sum(1 for _sw, event in merged if event == "configured") == 12


def test_why_packets_were_lost(docs):
    answer = why_packets_were_lost(docs)
    assert answer["by_cause"] == {"table-discard": 40}
    assert sum(answer["where"]["table-discard"].values()) == 40


def test_why_this_run_is_slower(docs):
    answer = why_this_run_is_slower(docs)
    assert answer["events_per_sec"] > 0
    assert "ReceiveFifo._on_boundary" in answer["shares"]
    assert 0.99 <= sum(answer["shares"].values()) <= 1.0


@settings(max_examples=300, deadline=None)
@given(walls=st.lists(st.integers(0, 10**9), max_size=30))
@example(walls=[945215, 332849, 32075, 23406])  # rounded one by one: 1.0001
def test_the_share_column_sums_to_at_most_one(walls):
    """The hotspots ``share`` column of any wall-time table, read from the
    document and summed as ``why_this_run_is_slower`` sums it, is at most
    1, and within its bound of 1 whenever every row is shown."""
    profiler = EventLoopProfiler()
    for i, wall in enumerate(walls):
        profiler.account_call(f"handler{i}", wall)
    rows = [[h["handler"], h["share"]] for h in profiler.summary()["hotspots"]]
    hotspots = {"name": "hotspots", "headers": ["handler", "share"], "rows": rows,
                "telemetry": {"events_per_sec": 1.0}}
    docs = json.loads(json.dumps({"bench": {"results": [hotspots]}}))
    total = sum(why_this_run_is_slower(docs)["shares"].values())
    assert total <= 1.0
    if any(walls) and len(walls) <= 20:
        assert total >= 0.99


def test_who_went_dark(docs):
    answer = who_went_dark(docs)
    assert answer["epoch"] == 5
    switches = answer["switches"]
    assert len(switches) == 12 and min(switches.values()) > 0
    hosts = answer["hosts"]
    assert sorted(hosts) == ["h0", "h1"]
    assert all(0 < ns <= max(switches.values()) for ns in hosts.values())


def test_what_the_blackout_cost_traffic(docs):
    answer = what_the_blackout_cost_traffic(docs)
    assert answer["epoch"] == 5 and answer["max_blackout_ns"] > 0
    assert answer["deliveries"] == 0 and answer["drops"] == 26


def test_which_flows_changed_path(docs):
    changes = which_flows_changed_path(docs)
    assert len(changes) == 2
    assert {epoch for _src, _dest, epoch in changes} == {5}


def test_the_hottest_link(docs):
    link, depth = the_hottest_link(docs)
    assert link.startswith("sw") and ".p" in link and depth > 0


def test_fifo_and_good_ports_across_the_cut(docs):
    answer = fifo_and_good_ports_across_the_cut(docs)
    assert answer["good_ports"] == {"sw0": (4.0, 3.0), "sw1": (4.0, 3.0)}
    assert 2_200_000_000 < answer["cut_tick_ns"] <= 2_300_000_000
    assert 0 < answer["fifo_highwater_before"] <= answer["fifo_highwater_at_end"]


def test_superseded_boot_epochs_own_no_window(docs):
    """Boot epochs 1-3 are superseded before they close: they own no SLO
    window and no host-blackout entry, so no epoch claims traffic it did
    not see."""
    slo = docs["inband"]["slo"]
    windows = {w["epoch"]: w for w in slo["windows"]}
    assert sorted(windows) == [4, 5]
    assert sum(w["deliveries"] for w in windows.values()) <= slo["deliveries"]
    assert sum(w["drops"] for w in windows.values()) <= sum(slo["drops"].values())
    assert sorted(telemetry(docs)["host_blackouts"]) == ["4", "5"]
