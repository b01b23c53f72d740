"""Chrome ``trace_event`` / Perfetto export of a flight recording.

Renders a whole reconfiguration as a timeline: one track (thread) per
switch, epochs as slices between that switch's ``epoch-start`` (its
forwarding table drops to one-hop entries) and its ``table-loaded``
(step 5 finished, the switch reopens), phase marks and port transitions
as instants, and every control-message hop as a flow arrow from the send
on the sender's track to the receive on the receiver's track.  The §6.7
merged circular log, when provided, appears as its own track instead of
living in a parallel, export-less world.

The emitted document is simultaneously

* a valid Chrome/Perfetto trace -- load it at https://ui.perfetto.dev or
  ``chrome://tracing`` (both ignore unknown top-level keys), and
* a ``repro.obs.flight/1`` artifact: the ``schema`` key, per-component
  drop counts under ``otherData``, and ``eid``/``parent`` in every
  event's ``args`` so the causal chains survive the export and can be
  walked offline.

``ARTIFACT`` is its schema for :mod:`repro.obs.artifact`: field
presence/types per phase, matched B/E slice nesting per track, and flow
bind-id resolution (every flow finish has an earlier flow start with the
same id).  :func:`render_trace` is its text report: what was recorded,
the final epoch's message wave, and the causal chain behind each
switch's table load, walked offline from the exported parent links.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.artifact import INT, NAME, NONNEG, Atom, Schema, defect, fail, read
from repro.obs.flight import FlightEvent, FlightRecorder, render_chain
from repro.sim.trace import CAT_EPOCH, CAT_LOG, CAT_MESSAGE, CAT_PORT

#: bump when the trace document layout changes incompatibly
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: single simulated process; tracks are threads within it
PID = 1

#: tid reserved for the bridged §6.7 merged log track
MERGED_LOG_TID = 1000


def _us(t_ns: int) -> float:
    """trace_event timestamps are microseconds."""
    return t_ns / 1000.0


def _args(event) -> Dict[str, Any]:
    out: Dict[str, Any] = {"eid": event.eid}
    if event.parent is not None:
        out["parent"] = event.parent
    for key, value in event.attrs.items():
        if value is None:
            continue
        out[key] = (
            value if isinstance(value, (int, float, str, bool)) else str(value)
        )
    return out


def _tracks(process: Optional[str], tids: Dict[str, int]) -> List[Dict[str, Any]]:
    """Metadata events: the process's name (when given), then one named
    thread track per component."""
    names = [("process_name", 0, process)] if process is not None else []
    names += [("thread_name", tid, component) for component, tid in tids.items()]
    return [
        {"ph": "M", "name": kind, "pid": PID, "tid": tid, "args": {"name": label}}
        for kind, tid, label in names
    ]


def trace_event_document(
    recorder: FlightRecorder,
    merged_log=None,
    name: str = "autonet",
) -> Dict[str, Any]:
    """Build the ``repro.obs.flight/1`` / Chrome trace_event document.

    ``merged_log`` is an optional :class:`repro.sim.trace.MergedLog`;
    its clock-normalized entries become instants on a dedicated track.
    """
    components = recorder.components()
    tids = {component: tid for tid, component in enumerate(components, start=1)}
    events = _tracks(name, tids)

    #: per-tid stack of open epoch slices, for matched B/E emission
    open_slices: Dict[int, List[int]] = {tid: [] for tid in tids.values()}
    #: flow-start ids already emitted (binds must resolve)
    flow_started: set = set()
    last_ts = 0

    def close_slices(tid: int, t_ns: int, down_to: int = 0) -> None:
        while len(open_slices[tid]) > down_to:
            epoch = open_slices[tid].pop()
            events.append(
                {
                    "ph": "E",
                    "name": f"epoch {epoch}",
                    "cat": CAT_EPOCH,
                    "ts": _us(t_ns),
                    "pid": PID,
                    "tid": tid,
                }
            )

    for event in recorder.events():
        tid = tids[event.component]
        ts = _us(event.t_ns)
        last_ts = max(last_ts, event.t_ns)

        if event.category == CAT_EPOCH and event.name == "epoch-start":
            # a new epoch preempts anything still open on this track
            close_slices(tid, event.t_ns)
            open_slices[tid].append(event.attrs.get("epoch"))
            events.append(
                {
                    "ph": "B",
                    "name": f"epoch {event.attrs.get('epoch')}",
                    "cat": CAT_EPOCH,
                    "ts": ts,
                    "pid": PID,
                    "tid": tid,
                    "args": _args(event),
                }
            )
            continue
        if event.category == CAT_EPOCH and event.name == "table-loaded":
            events.append(
                {
                    "ph": "i",
                    "name": "table-loaded",
                    "cat": CAT_EPOCH,
                    "s": "t",
                    "ts": ts,
                    "pid": PID,
                    "tid": tid,
                    "args": _args(event),
                }
            )
            close_slices(tid, event.t_ns)
            continue

        if event.category == CAT_MESSAGE:
            msg = str(event.attrs.get("msg", "msg"))
            # a zero-width slice either way; a send's anchors the flow arrow's tail
            events.append(
                {
                    "ph": "X",
                    "name": msg,
                    "cat": CAT_MESSAGE,
                    "ts": ts,
                    "dur": 1,
                    "pid": PID,
                    "tid": tid,
                    "args": _args(event),
                }
            )
            if event.name == "msg-send":
                events.append(
                    {
                        "ph": "s",
                        "name": msg,
                        "cat": CAT_MESSAGE,
                        "id": event.eid,
                        "ts": ts,
                        "pid": PID,
                        "tid": tid,
                    }
                )
                flow_started.add(event.eid)
            else:  # msg-recv
                flow = event.attrs.get("flow")
                if flow in flow_started:
                    events.append(
                        {
                            "ph": "f",
                            "bp": "e",
                            "name": msg,
                            "cat": CAT_MESSAGE,
                            "id": flow,
                            "ts": ts,
                            "pid": PID,
                            "tid": tid,
                        }
                    )
            continue

        # everything else (port transitions, timers, table loads, other
        # epoch phase marks) renders as a thread-scoped instant
        events.append(
            {
                "ph": "i",
                "name": event.name,
                "cat": event.category,
                "s": "t",
                "ts": ts,
                "pid": PID,
                "tid": tid,
                "args": _args(event),
            }
        )

    # epochs still in flight at export time: close them at the last
    # timestamp so every B has its E (the validator insists)
    for tid in tids.values():
        close_slices(tid, last_ts)

    if merged_log is not None:
        merged = merged_log.merged()
        if merged:
            events += _tracks(None, {"merged-log (§6.7)": MERGED_LOG_TID})
            for entry in merged:
                events.append(
                    {
                        "ph": "i",
                        "name": entry.event,
                        "cat": CAT_LOG,
                        "s": "t",
                        "ts": _us(entry.local_time),
                        "pid": PID,
                        "tid": MERGED_LOG_TID,
                        "args": {
                            "component": entry.component,
                            "detail": entry.detail,
                        },
                    }
                )

    return {
        "schema": FLIGHT_SCHEMA,
        "displayTimeUnit": "ms",
        "otherData": {
            "recorded": recorder.total_recorded,
            "dropped": recorder.total_dropped,
            "dropped_by_component": recorder.dropped_by_component(),
            "components": components,
        },
        "traceEvents": events,
    }


#: category for in-band hop records in a path trace
CAT_PATH = "path"


def path_trace_document(
    inband_doc: Dict[str, Any],
    name: str = "autonet-paths",
) -> Dict[str, Any]:
    """Render a ``repro.obs.inband/1`` document's retained hop stacks as
    flow arrows: one track per switch/host, one zero-width slice per hop,
    and an ``s``/``t``/``f`` chain (id = packet id) threading each
    packet's route from its first forwarding grant to its delivery.

    The result reuses the ``repro.obs.flight/1`` envelope so it
    validates as one and loads at https://ui.perfetto.dev.
    """
    stacks = [s for s in inband_doc.get("recent", []) if s.get("hops")]
    components: List[str] = []
    for stack in stacks:
        for hop in stack["hops"]:
            if hop[1] not in components:
                components.append(hop[1])
        if stack["host"] not in components:
            components.append(stack["host"])
    tids = {component: tid for tid, component in enumerate(components, start=1)}
    events = _tracks(name, tids)

    for stack in stacks:
        pkt = stack["packet_id"]
        label = f"pkt#{pkt}"
        hops = stack["hops"]
        for index, (t_ns, switch, in_port, outs, depth) in enumerate(hops):
            tid = tids[switch]
            ts = _us(t_ns)
            events.append(
                {
                    "ph": "X",
                    "name": label,
                    "cat": CAT_PATH,
                    "ts": ts,
                    "dur": 1,
                    "pid": PID,
                    "tid": tid,
                    "args": {
                        "hop": index,
                        "in_port": in_port,
                        "out_ports": ",".join(str(p) for p in outs),
                        "fifo_depth_bytes": depth,
                    },
                }
            )
            events.append(
                {
                    "ph": "s" if index == 0 else "t",
                    "name": label,
                    "cat": CAT_PATH,
                    "id": pkt,
                    "ts": ts,
                    "pid": PID,
                    "tid": tid,
                }
            )
        tid = tids[stack["host"]]
        ts = _us(stack["delivered_ns"])
        events.append(
            {
                "ph": "X",
                "name": label,
                "cat": CAT_PATH,
                "ts": ts,
                "dur": 1,
                "pid": PID,
                "tid": tid,
                "args": {
                    "latency_ns": stack["delivered_ns"] - stack["created_ns"],
                    "hops": len(hops),
                },
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "name": label,
                "cat": CAT_PATH,
                "id": pkt,
                "ts": ts,
                "pid": PID,
                "tid": tid,
            }
        )

    return {
        "schema": FLIGHT_SCHEMA,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": inband_doc.get("schema"),
            "name": inband_doc.get("name"),
            "stacks": len(stacks),
            "components": components,
        },
        "traceEvents": events,
    }


# -- the repro.obs.flight/1 artifact ---------------------------------------------------

_TIMED = {"ts": NONNEG}
_NAMED = {**_TIMED, "name": NAME}
_FLOW = {**_NAMED, "id": Atom("int or string id", (int, str))}
#: what each phase this exporter emits must carry beyond pid/tid;
#: any other phase is a validation error
_PHASES = {
    "M": {"name": NAME},
    "B": _NAMED,
    "E": _TIMED,
    "i": _NAMED,
    "I": _NAMED,
    "X": {**_NAMED, "dur": NONNEG},
    "s": _FLOW,
    "t": _TIMED,
    "f": _FLOW,
}


def _rules(doc: Dict[str, Any]) -> None:
    """What depends on an event's phase, and what spans events: the
    phase's fields (``_PHASES``); B/E slices nest and match per track;
    every flow finish binds to an earlier flow start with the same id.
    An event's path is formatted only once it has failed."""
    slice_stacks: Dict[tuple, List[str]] = {}
    flow_starts: set = set()
    for i, event in enumerate(doc["traceEvents"]):
        ph = event.get("ph")
        if ph not in _PHASES:
            fail(f"$.traceEvents[{i}].ph", f"unknown phase {ph!r}")
        bad = defect(_PHASES[ph], event)
        if bad:
            fail(f"$.traceEvents[{i}]{bad[0]}", bad[1])
        if ph == "B":
            slice_stacks.setdefault((event["pid"], event["tid"]), []).append(event["name"])
        elif ph == "E":
            track = (event["pid"], event["tid"])
            stack = slice_stacks.get(track)
            if not stack:
                fail(f"$.traceEvents[{i}]", f"slice end with no open slice on track {track}")
            opened = stack.pop()
            ended = event.get("name")
            if ended is not None and ended != opened:
                fail(f"$.traceEvents[{i}]", f"slice end {ended!r} does not match open {opened!r}")
        elif ph == "s":
            flow_starts.add(event["id"])
        elif ph == "f" and event["id"] not in flow_starts:
            fail(f"$.traceEvents[{i}].id", f"flow finish {event['id']!r} has no earlier start")
    for track, stack in slice_stacks.items():
        if stack:
            fail("$", f"track {track} ends with unclosed slices: {stack}")


def read_trace(path: str) -> Dict[str, Any]:
    """Load and validate a flight trace document from disk."""
    return read(path, FLIGHT_SCHEMA)


def chains_from_trace(doc: Dict[str, Any]) -> Dict[int, Optional[int]]:
    """Offline parent map (eid -> parent) recovered from a trace file's
    ``args``, so ``why``-style walks work without the live recorder."""
    parents: Dict[int, Optional[int]] = {}
    for event in doc.get("traceEvents", []):
        args = event.get("args") or {}
        eid = args.get("eid")
        if isinstance(eid, int):
            parents[eid] = args.get("parent")
    return parents


def recorder_from_trace(doc: Dict[str, Any]) -> FlightRecorder:
    """The recorder's events as the trace preserves them, back in a
    recorder: an epoch slice's begin is its ``epoch-start``, a message
    slice is a send when a flow arrow starts at it and a receive
    otherwise, and the parent links are :func:`chains_from_trace`'s."""
    events = doc["traceEvents"]
    tracks = {
        e["tid"]: (e.get("args") or {}).get("name")
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    sends = {e["id"] for e in events if e["ph"] == "s"}
    parents = chains_from_trace(doc)
    recorded = []
    for e in events:
        attrs = dict(e.get("args") or {})
        eid = attrs.pop("eid", None)
        if eid not in parents:
            continue
        attrs.pop("parent", None)
        if e["ph"] == "B":
            name = "epoch-start"
        elif e["ph"] == "X":
            name = "msg-send" if eid in sends else "msg-recv"
        else:
            name = e["name"]
        recorded.append(FlightEvent(
            eid, round(e["ts"] * 1000), tracks.get(e["tid"]) or f"tid {e['tid']}",
            e.get("cat", ""), name, parents[eid], attrs,
        ))
    return FlightRecorder.holding(recorded)


def render_trace(doc: Dict[str, Any]) -> str:
    """The text report of a trace: what it holds and, for a flight
    recording, the section 6.7 story of its final epoch -- the message
    wave (first arrival per switch) and why each switch loaded its
    table, root cause first."""
    events = doc["traceEvents"]
    other = doc.get("otherData") or {}
    flows = sum(1 for e in events if e["ph"] == "s")
    lines = [f"{len(events)} trace events, {flows} flow arrows"]
    if "recorded" in other:
        lines.append(
            f"  {other['recorded']} events recorded on {len(other.get('components', []))} "
            f"components, {other.get('dropped', 0)} dropped"
        )
        for component, dropped in (other.get("dropped_by_component") or {}).items():
            lines.append(f"    {component}: {dropped} oldest events evicted")
    elif "stacks" in other:
        lines.append(f"  {other['stacks']} packet hop stacks from {other.get('source')}")
    rec = recorder_from_trace(doc)
    final = rec.last(category=CAT_EPOCH, name="table-loaded")
    if final is None:
        return "\n".join(lines)
    epoch = final.attrs.get("epoch")
    chains = [
        (load.component, rec.why(load))
        for load in rec.events(category=CAT_EPOCH, name="table-loaded", epoch=epoch)
    ]
    rooted = sum(1 for _sw, chain in chains if any(e.category == CAT_PORT for e in chain))
    lines.append(
        f"epoch {epoch}: {len(chains)} table loads, "
        f"{rooted} causally rooted at a port-state transition"
    )
    lines.append(f"message wave of epoch {epoch} (first arrival per switch):")
    for entry in rec.wave(epoch):
        lines.append(
            f"  {entry['t_ns'] / 1e6:>10.3f} ms  {entry['component']}  ({entry['event']})"
        )
    for switch, chain in chains:
        lines += ["", f"why did {switch} load its table in epoch {epoch}?", render_chain(chain)]
    return "\n".join(lines)


ARTIFACT = Schema(
    {"traceEvents": [{"pid": INT, "tid": INT}]}, rules=_rules, render=render_trace, indent=None
)
