"""In-band path telemetry: the data plane as its own sensor (§6.7, §4).

Every instrument before this one watched the *control* plane; the
paper's headline claim -- reconfiguration pauses are "brief" (§1, §6.7)
-- is a claim about what *user traffic* experiences.  This module turns
enabled data packets into probes, in the style of in-band network
telemetry (MRI-style per-hop INT): each forwarding decision appends one
bounded hop record to the packet

    (sim time, switch, ingress port, egress ports, FIFO depth)

where the FIFO depth comes from the mutation-free
:meth:`~repro.net.fifo.ReceiveFifo.peek_level`, so stamping never
perturbs the fluid model.  On delivery the host side folds the stack:

* :class:`PathCollector` -- per-flow path records, a path-change log
  that catches route flaps across reconfiguration epochs, and per-link
  congestion reports (depth samples + queue drops);
* :class:`SloTracker` -- delivery latency p50/p99 (exact, from bounded
  retained samples), drops by cause, and goodput, *windowed against*
  the :class:`~repro.obs.spans.ReconfigTracer` epoch spans -- "what did
  that blackout cost in-flight traffic?" as one number.

Discipline (mirrors the flight recorder and the sampler):

* **Null fast path.**  ``Simulator.inband`` is ``None`` by default and
  every stamp site in ``switch``/``linkunit``/``fifo``/``host`` is one
  attribute load plus a ``None`` test (``RS305`` enforces this); a
  packet's ``hops`` field stays ``None`` -- nothing is allocated -- and
  runs are byte-identical with the module out of play.
* **Observational purity.**  Hop records only *read* component state;
  no stamp changes routing, rates, or event order.
* **Bounded everything.**  Hop stacks, flow tables, change logs and
  latency-sample rings are all capped by the module constants below,
  with drop counters where eviction happens.

The recorded state exports as a ``repro.obs.inband/2`` JSON artifact
(schema table ``ARTIFACT`` below); :func:`render_inband` is its text
report.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.net.packet import PacketType
from repro.obs.artifact import COUNT, INT, NAME, NUM, STR, Int, Map, Opt, Schema, keys, read
from repro.obs.flight import Ring
from repro.scenario import fmt_ns

#: bump the suffix when the artifact layout changes incompatibly
INBAND_SCHEMA = "repro.obs.inband/2"

#: one hop of a packet's record stack, as carried on the packet:
#: (t_ns, switch, in_port, out_ports, fifo_depth_bytes)
HopRecord = Tuple[int, str, int, Tuple[int, ...], float]

#: a path identity: the hop stack minus time and depth -- what "route"
#: means for change detection
PathKey = Tuple[Tuple[str, int, Tuple[int, ...]], ...]


#: hop records carried per packet; further hops count as truncated
MAX_HOPS = 32
#: distinct (src uid, dest uid) flows tracked; more are counted, not kept
MAX_FLOWS = 1024
#: path changes retained per flow (older ones evict, counted)
PATH_HISTORY = 16
#: delivery latency samples retained for exact quantiles (global ring)
LATENCY_SAMPLES = 65536
#: latency samples retained per flow
FLOW_LATENCY_SAMPLES = 4096


def path_of(hops: Optional[List[HopRecord]]) -> PathKey:
    """The route identity of a hop stack: switch / ingress / egress per
    hop, with the volatile fields (time, depth) stripped."""
    if not hops:
        return ()
    return tuple((sw, in_port, tuple(outs)) for _t, sw, in_port, outs, _d in hops)


def _on_path(hops: List[HopRecord], path: PathKey) -> bool:
    """``path_of(hops) == path``, compared in place."""
    return len(hops) == len(path) and all(
        sw == step[0] and in_port == step[1] and outs == step[2]
        for (_t, sw, in_port, outs, _d), step in zip(hops, path)
    )


def exact_quantile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank quantile over the *retained* samples -- exact, not
    bucket-interpolated like the traffic engine's ``Histogram.quantile``."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class FlowRecord:
    """Everything retained about one (src uid, dest uid) flow."""

    __slots__ = ("src_uid", "dest_uid", "deliveries", "bytes", "paths_seen",
                 "current_path", "changes", "latencies")

    def __init__(self, src_uid: int, dest_uid: int) -> None:
        self.src_uid = src_uid
        self.dest_uid = dest_uid
        self.deliveries = 0
        self.bytes = 0
        #: distinct route switches observed (1 = the flow never moved)
        self.paths_seen = 0
        self.current_path: Optional[PathKey] = None
        #: (t_ns, epoch, old_path, new_path), newest-last, bounded
        self.changes = Ring(PATH_HISTORY)
        self.latencies: Deque[int] = deque(maxlen=FLOW_LATENCY_SAMPLES)


class PathCollector:
    """Folds delivered hop stacks into per-flow path records, the
    path-change log, and per-link congestion reports."""

    def __init__(self) -> None:
        self.flows: Dict[Tuple[int, int], FlowRecord] = {}
        #: deliveries whose flow could not be tracked (table full)
        self.dropped_flows = 0
        #: deliveries without both uids (control-plane client frames)
        self.unkeyed_deliveries = 0
        #: "sw0.p3" -> [depth samples, depth sum, depth max, queue drops]
        self.links: Dict[str, List[float]] = {}

    # -- feeds ------------------------------------------------------------------

    def note_hop(self, switch: str, in_port: int, depth: float) -> None:
        """One forwarding decision's congestion sample (stamp-time feed,
        so congestion is seen even for packets that never deliver)."""
        link = f"{switch}.p{in_port}"
        entry = self.links.get(link)
        if entry is None:
            entry = self.links[link] = [0.0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += depth
        if depth > entry[2]:
            entry[2] = depth

    def note_queue_drop(self, component: str) -> None:
        """A receive FIFO overflowed: one queue-drop congestion report."""
        entry = self.links.setdefault(component, [0.0, 0.0, 0.0, 0.0])
        entry[3] += 1

    def fold(self, packet, t_ns: int, epoch: Optional[int]) -> None:
        """A packet delivered: fold its hop stack into the flow table."""
        if packet.src_uid is None or packet.dest_uid is None:
            self.unkeyed_deliveries += 1
            return
        key = (packet.src_uid.value, packet.dest_uid.value)
        record = self.flows.get(key)
        if record is None:
            if len(self.flows) >= MAX_FLOWS:
                self.dropped_flows += 1
                return
            record = FlowRecord(key[0], key[1])
            self.flows[key] = record
        record.deliveries += 1
        record.bytes += packet.data_bytes
        if packet.created_at:
            record.latencies.append(t_ns - packet.created_at)
        current = record.current_path
        if current is None:
            record.current_path = path_of(packet.hops)
            record.paths_seen = 1
        elif not _on_path(packet.hops or (), current):
            path = path_of(packet.hops)
            record.changes.append((t_ns, epoch, current, path))
            record.current_path = path
            record.paths_seen += 1

    # -- queries ----------------------------------------------------------------

class SloTracker:
    """Delivery-SLO accounting: exact latency quantiles, drops by cause,
    and goodput, windowed against reconfiguration epoch spans."""

    def __init__(self) -> None:
        self.deliveries = 0
        self.delivered_bytes = 0
        #: (t_ns, latency_ns or None, data bytes), newest-last, bounded
        self.samples = Ring(LATENCY_SAMPLES)
        self.drops: Dict[str, int] = {}
        #: (t_ns, cause), bounded like the sample ring
        self.drop_events: Deque[Tuple[int, str]] = deque(maxlen=LATENCY_SAMPLES)

    def delivery(self, t_ns: int, latency_ns: Optional[int],
                 data_bytes: int) -> None:
        self.deliveries += 1
        self.delivered_bytes += data_bytes
        self.samples.append((t_ns, latency_ns, data_bytes))

    def drop(self, t_ns: int, cause: str) -> None:
        self.drops[cause] = self.drops.get(cause, 0) + 1
        self.drop_events.append((t_ns, cause))

    def latencies(self) -> List[int]:
        return [lat for _t, lat, _b in self.samples if lat is not None]

    def quantiles(self) -> Tuple[Optional[float], Optional[float]]:
        lats = [float(v) for v in self.latencies()]
        return exact_quantile(lats, 0.5), exact_quantile(lats, 0.99)

    def windows(self, tracer) -> List[Dict[str, Any]]:
        """Per-epoch SLO windows: for each of the tracer's windows, what
        the retained samples say traffic experienced inside it."""
        if tracer is None:
            return []
        out = []
        for span in tracer.windows():
            start = span["start_ns"]
            end = span["end_ns"]
            horizon = end if end is not None else float("inf")
            lats: List[float] = []
            in_deliveries = 0
            in_bytes = 0
            for t_ns, lat, data_bytes in self.samples:
                if start <= t_ns <= horizon:
                    in_deliveries += 1
                    in_bytes += data_bytes
                    if lat is not None:
                        lats.append(float(lat))
            in_drops = sum(
                1 for t_ns, _cause in self.drop_events if start <= t_ns <= horizon
            )
            out.append({
                "epoch": span["key"],
                "start_ns": start,
                "end_ns": end,
                "max_blackout_ns": span.get("max_blackout_ns"),
                "deliveries": in_deliveries,
                "drops": in_drops,
                "goodput_bytes": in_bytes,
                "p50_ns": exact_quantile(lats, 0.5),
                "p99_ns": exact_quantile(lats, 0.99),
            })
        return out


class InbandTelemetry:
    """The ``sim.inband`` object: hot-path stamp sink plus host-side
    folding.  Attach with ``sim.inband = InbandTelemetry(sim, ...)`` (or
    build the network with ``Network(inband=True)``, which does both).
    Detached, every stamp site costs one attribute load + None test."""

    def __init__(self, sim, tracer=None) -> None:
        self.sim = sim
        self.tracer = tracer
        self.collector = PathCollector()
        self.slo = SloTracker()
        self.hops_recorded = 0
        self.hops_truncated = 0
        self._current_epoch: Optional[int] = None
        if tracer is not None:
            tracer.add_listener(self._span_event)

    def _span_event(self, _t_ns: int, _component: str, _event: str,
                    attrs: Dict[str, Any]) -> None:
        epoch = attrs.get("epoch")
        if epoch is not None and (
            self._current_epoch is None or epoch > self._current_epoch
        ):
            self._current_epoch = epoch

    # -- hot-path stamps (called behind the RS305 None-test guard) ---------------

    def record_hop(self, packet, switch: str, in_port: int,
                   out_ports: Tuple[int, ...], depth: float) -> None:
        """One forwarding grant: append a hop record to the packet."""
        if packet.ptype is not PacketType.CLIENT:
            return
        self.collector.note_hop(switch, in_port, depth)
        hops = packet.hops
        if hops is None:
            hops = []
            packet.hops = hops
        if len(hops) >= MAX_HOPS:
            self.hops_truncated += 1
            return
        hops.append((self.sim.now, switch, in_port, tuple(out_ports), depth))
        self.hops_recorded += 1

    def record_drop(self, packet, component: str, cause: str) -> None:
        """A terminal, delivery-affecting drop (table discard, CRC,
        misdirection, a full host receive buffer)."""
        if packet is None or packet.ptype is not PacketType.CLIENT:
            return
        self.slo.drop(self.sim.now, cause)

    def record_queue_drop(self, packet, fifo_name: str) -> None:
        """A receive-FIFO overflow: a per-link congestion report.  The
        corrupted victim still travels and is counted as a CRC drop on
        delivery, so this feeds the link table, not the SLO drop total."""
        component = fifo_name[:-5] if fifo_name.endswith(".fifo") else fifo_name
        self.collector.note_queue_drop(component)

    def record_delivery(self, packet) -> None:
        """A client packet accepted by a host controller."""
        if packet.ptype is not PacketType.CLIENT:
            return
        now = self.sim.now
        latency = (now - packet.created_at) if packet.created_at else None
        self.slo.delivery(now, latency, packet.data_bytes)
        self.collector.fold(packet, now, self._current_epoch)

    # -- export -----------------------------------------------------------------

    def document(self, name: str = "") -> Dict[str, Any]:
        """The ``repro.obs.inband/2`` artifact as a dict."""
        flows = []
        for (src, dest), record in sorted(self.collector.flows.items()):
            lats = [float(v) for v in record.latencies]
            flows.append({
                "src_uid": src,
                "dest_uid": dest,
                "deliveries": record.deliveries,
                "bytes": record.bytes,
                "paths_seen": record.paths_seen,
                "path": _jsonable_path(record.current_path or ()),
                "changes": [
                    {
                        "t_ns": t_ns,
                        "epoch": epoch,
                        "from": _jsonable_path(old),
                        "to": _jsonable_path(new),
                    }
                    for t_ns, epoch, old, new in record.changes
                ],
                "changes_dropped": record.changes.dropped,
                "latency_samples": len(lats),
                "latency_p50_ns": exact_quantile(lats, 0.5),
                "latency_p99_ns": exact_quantile(lats, 0.99),
            })
        links = []
        for link, (samples, total, peak, drops) in sorted(
            self.collector.links.items()
        ):
            links.append({
                "link": link,
                "samples": int(samples),
                "mean_depth": (total / samples) if samples else 0.0,
                "max_depth": peak,
                "drops": int(drops),
            })
        p50, p99 = self.slo.quantiles()
        return {
            "schema": INBAND_SCHEMA,
            "name": name,
            "max_hops": MAX_HOPS,
            "hops_recorded": self.hops_recorded,
            "hops_truncated": self.hops_truncated,
            "unkeyed_deliveries": self.collector.unkeyed_deliveries,
            "dropped_flows": self.collector.dropped_flows,
            "flows": flows,
            "links": links,
            "slo": {
                "deliveries": self.slo.deliveries,
                "delivered_bytes": self.slo.delivered_bytes,
                "p50_ns": p50,
                "p99_ns": p99,
                "samples_retained": len(self.slo.samples),
                "samples_dropped": self.slo.samples.dropped,
                "drops": dict(sorted(self.slo.drops.items())),
                "windows": self.slo.windows(self.tracer),
            },
        }


def _jsonable_path(path: PathKey) -> List[List[Any]]:
    return [[sw, in_port, list(outs)] for sw, in_port, outs in path]


# -- the repro.obs.inband/2 artifact --------------------------------------------------

#: the report shows each path's first hops, the hottest links, each as a bar
SHOWN_HOPS = 6
SHOWN_LINKS = 8
BAR_WIDTH = 24


def _fmt_path(path: List[List[Any]]) -> str:
    shown = [
        f"{sw}:p{inp}>" + "/".join(f"p{o}" for o in outs)
        for sw, inp, outs in path[:SHOWN_HOPS]
    ]
    if len(path) > SHOWN_HOPS:
        shown.append(f"... +{len(path) - SHOWN_HOPS} hops")
    return " | ".join(shown) if shown else "(no hops)"


def render_inband(doc: Dict[str, Any]) -> str:
    """The paths report of one ``repro.obs.inband/2`` document: per-flow
    delivery quantiles, current path and detected path changes, the
    delivery-SLO ledger with its per-epoch blackout windows, and the
    hottest links by mean FIFO depth at forwarding time (heat bars
    scaled against the hottest link)."""
    slo = doc["slo"]
    drops = ", ".join(f"{cause}={n}" for cause, n in slo["drops"].items())
    lines = [
        f"in-band path telemetry: {doc['name'] or '(unnamed)'}",
        f"  {doc['hops_recorded']} hop records on {slo['deliveries']} deliveries "
        f"({slo['delivered_bytes']} data bytes), {doc['hops_truncated']} truncated",
        f"  p50 {fmt_ns(slo['p50_ns'])} p99 {fmt_ns(slo['p99_ns'])}, drops {drops or 'none'}",
    ]
    for window in slo["windows"]:
        if window["max_blackout_ns"] is None:
            continue
        end = window["end_ns"]
        lines.append(
            f"  epoch {window['epoch']} [+{window['start_ns'] / 1e9:.3f}s.."
            f"{f'+{end / 1e9:.3f}s' if end is not None else 'open'}] "
            f"blackout {fmt_ns(window['max_blackout_ns'])}: "
            f"{window['deliveries']} delivered, {window['drops']} dropped, "
            f"goodput {window['goodput_bytes']}B"
        )
    lines.append("flows:")
    for flow in doc["flows"]:
        lines.append(
            f"  {flow['src_uid']:012x} -> {flow['dest_uid']:012x}: "
            f"{flow['deliveries']} delivered, "
            f"p50 {fmt_ns(flow['latency_p50_ns'])} p99 {fmt_ns(flow['latency_p99_ns'])}, "
            f"{flow['paths_seen']} path(s)"
        )
        lines.append(f"    path: {_fmt_path(flow['path'])}")
        for change in flow["changes"]:
            epoch = change["epoch"]
            lines.append(
                f"    change @ +{change['t_ns'] / 1e9:.3f}s"
                f"{f' (epoch {epoch})' if epoch is not None else ''}: "
                f"{_fmt_path(change['to'])}"
            )
    changes = sum(len(flow["changes"]) for flow in doc["flows"])
    lines.append(f"  {changes} path change(s) detected")
    links = sorted(doc["links"], key=lambda e: (-e["mean_depth"], e["link"]))[:SHOWN_LINKS]
    if links:
        lines.append("link congestion (mean FIFO depth at forwarding):")
        hottest = links[0]["mean_depth"] or 1.0
        label_w = max(len(entry["link"]) for entry in links)
        for entry in links:
            filled = int(round(entry["mean_depth"] / hottest * BAR_WIDTH))
            queue_drops = f"  {entry['drops']} queue drops" if entry["drops"] else ""
            lines.append(
                f"  {entry['link']:<{label_w}} |{'█' * filled}{'▁' * (BAR_WIDTH - filled)}| "
                f"{entry['samples']:>6} samples  mean {entry['mean_depth']:.0f}B  "
                f"max {entry['max_depth']:.0f}B{queue_drops}"
            )
    return "\n".join(lines)


#: a route as exported: [switch, in_port, out_ports] per hop
_PATH = [(NAME, COUNT, [INT])]

ARTIFACT = Schema(
    {
        "name": STR,
        "max_hops": Int(1),
        **keys(COUNT, "hops_recorded", "hops_truncated", "unkeyed_deliveries", "dropped_flows"),
        "flows": [
            {
                **keys(COUNT, "src_uid", "dest_uid", "deliveries", "bytes", "paths_seen"),
                **keys(COUNT, "changes_dropped", "latency_samples"),
                **keys(Opt(NUM), "latency_p50_ns", "latency_p99_ns"),
                "path": _PATH,
                "changes": [{"t_ns": COUNT, "epoch": Opt(COUNT), "from": _PATH, "to": _PATH}],
            }
        ],
        "links": [
            {
                "link": NAME,
                **keys(COUNT, "samples", "drops"),
                **keys(NUM, "mean_depth", "max_depth"),
            }
        ],
        "slo": {
            **keys(COUNT, "deliveries", "delivered_bytes", "samples_retained", "samples_dropped"),
            **keys(Opt(NUM), "p50_ns", "p99_ns"),
            "drops": Map(COUNT),
            "windows": [
                {
                    **keys(COUNT, "epoch", "start_ns", "deliveries", "drops", "goodput_bytes"),
                    "end_ns": Opt(COUNT),
                    **keys(Opt(NUM), "max_blackout_ns", "p50_ns", "p99_ns"),
                }
            ],
        },
    },
    render=render_inband,
    indent=None,
)


def read_inband(path: str) -> Dict[str, Any]:
    """Load and validate an inband artifact from disk."""
    return read(path, INBAND_SCHEMA)
