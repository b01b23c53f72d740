"""Longitudinal telemetry: the in-simulation time-series sampler (§6.7).

``Network.telemetry()`` answers "what are the totals *now*"; this module
answers "what did they do *over time*" -- the view Autonet's operators
actually watched.  A :class:`TimeSeriesSampler` attached to a simulator
schedules one periodic *sample event*; each tick it

* calls every registered *collector* (FIFO occupancy, ports per state,
  epoch number, blackout in-progress flags -- wired by
  :class:`repro.network.Network` when built with ``timeseries=True``),
  each of which appends exactly one value (None for "no sample"),
* and keeps everything in **bounded per-series ring buffers**: overflow
  evicts the oldest sample and counts the loss, exactly like the flight
  recorder's component rings.

Discipline (mirrors the flight recorder):

* **Null fast path.**  ``Network.sampler`` is ``None`` by default and
  nothing in the simulation ever touches the sampler from a hot path --
  sampling is *pull-only*, driven by the sampler's own event.  With the
  sampler off, runs are byte-identical to a build without this module.
* **Observational purity.**  Collectors only read component state; the
  FIFO occupancy collector uses :meth:`~repro.net.fifo.ReceiveFifo.
  peek_level`, which projects the fluid model to "now" without advancing
  it, so sampling never perturbs the float trajectory of the run.
* **Bounded everything.**  Series count, ring capacity, and the span-mark
  ring are all capped by the module constants below; rule ``RS304``
  of ``tests/test_discipline.py`` keeps collector names literal.

The recorded history exports as a ``repro.obs.timeseries/1`` JSON
artifact (schema table ``ARTIFACT`` below) and is queryable -- live or from
a loaded artifact -- through :class:`TimeSeries` / :class:`SeriesData`
(``select`` / ``window`` / ``last``); :func:`render_timeseries` is
the document's text report: ring health, then :func:`render_frame`, the
dashboard at the last tick (per-switch sparklines, flags, SLO rows).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.artifact import (
    COUNT,
    INT,
    NAME,
    NUM,
    STR,
    Int,
    Opt,
    Schema,
    fail,
    keys,
    read,
)
from repro.obs.flight import Ring
from repro.sim.engine import cancel

#: bump the suffix when the artifact layout changes incompatibly
TIMESERIES_SCHEMA = "repro.obs.timeseries/1"

MS = 1_000_000

#: simulated time between samples
INTERVAL_NS = 50 * MS
#: samples retained per series (ring capacity)
CAPACITY = 1024
#: series refused beyond this count (cardinality backstop)
MAX_SERIES = 4096
#: span events retained in the mark ring (the dashboard frame's "recent
#: reconfiguration events" rows)
MARK_CAPACITY = 256

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


class TimeSeriesSampler:
    """Periodic in-sim sampler feeding bounded per-series rings.

    Start with ``sampler.start()`` (or build the network with
    ``Network(timeseries=True)``, which also wires the collectors).  The
    sampler schedules its own tick events; nothing else in the
    simulation ever calls into it, so a detached sampler costs zero.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: shared tick-time ring (one entry per sample event)
        self._ticks = Ring(CAPACITY)
        #: (name, label key) -> (kind, ring of its samples): a ring
        #: created at tick k holds ticks k, k+1, ... (the newest CAPACITY),
        #: aligned with the tick ring from the end
        self._series: Dict[Tuple[str, LabelKey], Tuple[str, Ring]] = {}
        #: (ring, fn) sampled every tick
        self._collectors: List[Tuple[Ring, Callable[[], Optional[float]]]] = []
        #: bounded ring of (t_ns, component, event) span marks
        self._marks = Ring(MARK_CAPACITY)
        #: series refused because max_series was reached
        self.dropped_series = 0
        #: total sample events taken
        self.samples_taken = 0
        self._running = False
        self._handle = None

    # -- registration -------------------------------------------------------------

    def add_collector(self, name: str, fn: Callable[[], Optional[float]],
                      kind: str = "gauge", **labels: Any) -> None:
        """Register a pull-only series: ``fn`` is called once per tick
        and returns a number, or None for "no sample this tick" (e.g. a
        crashed switch).  Names must be literal (RS304) and rings are
        bounded by ``CAPACITY``."""
        key = (name, _label_key(labels))
        entry = self._series.get(key)
        if entry is None:
            if len(self._series) >= MAX_SERIES:
                self.dropped_series += 1
                return
            entry = self._series[key] = (kind, Ring(CAPACITY))
        self._collectors.append((entry[1], fn))

    def mark(self, t_ns: int, component: str, event: str, attrs: Any = None) -> None:
        """Record one span event into the bounded mark ring: Network adds
        this method as a ReconfigTracer listener (``attrs`` is not kept)."""
        self._marks.append((t_ns, component, event))

    # -- the sample loop ----------------------------------------------------------

    def start(self) -> None:
        """Schedule the first sample event."""
        if self._running:
            return
        self._running = True
        self._handle = self.sim.after(INTERVAL_NS, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._ticks.append(float(self.sim.now))
        # every series is one collector: each appends once per tick
        for ring, fn in self._collectors:
            value = fn()
            ring.append(None if value is None else float(value))
        self.samples_taken += 1
        self._handle = self.sim.after(INTERVAL_NS, self._tick)

    # -- queries -------------------------------------------------------------------

    def ticks(self) -> List[int]:
        return [int(t) for t in self._ticks.items()]

    # -- export --------------------------------------------------------------------

    def document(self, name: str = "") -> Dict[str, Any]:
        """The ``repro.obs.timeseries/1`` artifact as a dict."""
        ticks = self.ticks()
        series = []
        for (sname, key), (kind, ring) in sorted(
            self._series.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            values = ring.items()
            # left-pad series younger than the retained tick window so
            # every values array is positionally aligned with `ticks`
            pad = len(ticks) - len(values)
            if pad > 0:
                values = [None] * pad + values
            elif pad < 0:  # pragma: no cover - rings are tick-aligned
                values = values[-len(ticks):]
            series.append({
                "name": sname,
                "labels": {k: _jsonable(v) for k, v in key},
                "kind": kind,
                "dropped": ring.dropped,
                "values": values,
            })
        return {
            "schema": TIMESERIES_SCHEMA,
            "name": name,
            "interval_ns": INTERVAL_NS,
            "capacity": CAPACITY,
            "samples_taken": self.samples_taken,
            "dropped_ticks": self._ticks.dropped,
            "dropped_series": self.dropped_series,
            "ticks": ticks,
            "series": series,
            "marks": [
                {"t_ns": t, "component": component, "event": event}
                for t, component, event in self._marks.items()
            ],
        }


# -- the query API -------------------------------------------------------------------


class SeriesData:
    """One series' retained samples."""

    __slots__ = ("name", "labels", "kind", "ticks", "values")

    def __init__(self, name: str, labels: Dict[str, Any], kind: str,
                 ticks: List[int], values: List[Optional[float]]) -> None:
        if len(ticks) != len(values):
            raise ValueError(
                f"series {name}: {len(values)} values for {len(ticks)} ticks"
            )
        self.name = name
        self.labels = labels
        self.kind = kind
        self.ticks = ticks
        self.values = values

    def __len__(self) -> int:
        return len(self.ticks)

    def points(self) -> List[Tuple[int, float]]:
        """(t_ns, value) pairs, gaps (None samples) omitted."""
        return [(t, v) for t, v in zip(self.ticks, self.values) if v is not None]

    def last(self) -> Optional[float]:
        points = self.points()
        return points[-1][1] if points else None

class TimeSeries:
    """Query wrapper over a ``repro.obs.timeseries/1`` document."""

    def __init__(self, doc: Dict[str, Any]) -> None:
        self.doc = doc
        self._by_key: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
        for entry in doc["series"]:
            key = (entry["name"], _label_key(entry["labels"]))
            self._by_key[key] = entry

    @property
    def ticks(self) -> List[int]:
        return self.doc["ticks"]

    @property
    def interval_ns(self) -> int:
        return self.doc["interval_ns"]

    def series(self, name: str, **labels: Any) -> Optional[SeriesData]:
        entry = self._by_key.get((name, _label_key(labels)))
        if entry is None:
            return None
        return SeriesData(
            entry["name"], dict(entry["labels"]), entry["kind"],
            list(self.doc["ticks"]), list(entry["values"]),
        )

    def select(self, name: str, **labels: Any) -> List[SeriesData]:
        """Every series of ``name`` whose labels are a superset of the
        given ones (label-subset match, like a PromQL selector)."""
        wanted = set(labels.items())
        out = []
        for (sname, _key), entry in sorted(
            self._by_key.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            if sname != name:
                continue
            if not wanted <= set(entry["labels"].items()):
                continue
            out.append(SeriesData(
                entry["name"], dict(entry["labels"]), entry["kind"],
                list(self.doc["ticks"]), list(entry["values"]),
            ))
        return out

    def marks(self) -> List[Dict[str, Any]]:
        return list(self.doc.get("marks", []))


# -- the repro.obs.timeseries/1 artifact ----------------------------------------------


def _rules(doc: Dict[str, Any]) -> None:
    """Tick times strictly increase and every series is tick-aligned."""
    ticks = doc["ticks"]
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        fail("$.ticks", "expected strictly increasing times")
    for i, entry in enumerate(doc["series"]):
        if len(entry["values"]) != len(ticks):
            fail(
                f"$.series[{i}].values",
                f"{len(entry['values'])} values for {len(ticks)} ticks",
            )


#: nine intensity levels; index 0 (a space) is "zero", None renders as ``·``
SPARK_CHARS = " ▁▂▃▄▅▆▇█"
GAP_CHAR = "·"

#: the PortState value a fully configured trunk settles in
GOOD_STATE = "s.switch.good"


def sparkline(values: Sequence[Optional[float]], width: int = 32) -> str:
    """The last ``width`` samples as one character each.

    Scale is the window's own min/max, with the floor pulled down to 0
    for non-negative data so "3 of 4 ports good" does not render as a
    full-height bar.  ``None`` samples -- a crashed switch, a
    not-yet-created series -- render as ``·``.
    """
    window = list(values)[-width:] if width > 0 else list(values)
    if not window:
        return ""
    present = [v for v in window if v is not None]
    if not present:
        return GAP_CHAR * len(window)
    wlo = min(min(present), 0.0)
    span = max(present) - wlo
    out = []
    for v in window:
        if v is None:
            out.append(GAP_CHAR)
        elif span <= 0:
            out.append(SPARK_CHARS[-1] if v > 0 else SPARK_CHARS[0])
        else:
            idx = int((v - wlo) / span * (len(SPARK_CHARS) - 1))
            out.append(SPARK_CHARS[max(0, min(idx, len(SPARK_CHARS) - 1))])
    return "".join(out)


def _natural(name: str) -> List[Any]:
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", name)]


def _rowwise_max(series: List[SeriesData]) -> List[Optional[float]]:
    """Per-tick max across several tick-aligned series (None where every
    series has a gap) -- e.g. the worst FIFO across a switch's ports."""
    if not series:
        return []
    out: List[Optional[float]] = []
    for i in range(len(series[0])):
        best: Optional[float] = None
        for s in series:
            v = s.values[i]
            if v is not None and (best is None or v > best):
                best = v
        out.append(best)
    return out


def switch_names(ts: TimeSeries) -> List[str]:
    """Every switch the sampler recorded, in natural order."""
    names = {s.labels.get("switch") for s in ts.select("epoch")}
    return sorted((n for n in names if n), key=_natural)


def fmt_t(t_ns: int) -> str:
    return f"+{t_ns / 1e9:.3f}s"


def _rate_window(counter: SeriesData) -> List[Optional[float]]:
    """Per-tick deltas of a cumulative counter series (rate shape)."""
    out: List[Optional[float]] = []
    prev: Optional[float] = None
    for v in counter.values:
        if v is None or prev is None:
            out.append(None if v is None else 0.0)
        else:
            out.append(max(0.0, v - prev))
        if v is not None:
            prev = v
    return out


def traffic_rows(ts: TimeSeries) -> List[str]:
    """Workload SLO rows from the traffic engine's collectors: active /
    unrouted flow counts, per-tick delivered-byte rate, and the
    cumulative blackout cost.  Empty when no traffic engine sampled."""
    active = ts.series("traffic_active_flows")
    if active is None:
        return []
    unrouted = ts.series("traffic_unrouted_flows")
    completed = ts.series("traffic_completed_flows")
    delivered = ts.series("traffic_delivered_bytes")
    blackout = ts.series("traffic_blackout_cost_bytes")
    rows = ["traffic SLO:"]
    last_active = active.last() or 0
    last_unrouted = (unrouted.last() or 0) if unrouted else 0
    last_completed = (completed.last() or 0) if completed else 0
    rows.append(
        f"  flows  active {int(last_active):>4} "
        f"(unrouted {int(last_unrouted)}) "
        f"done {int(last_completed):>4} |{sparkline(active.values)}|"
    )
    if delivered is not None:
        rate = _rate_window(delivered)
        tail = next((v for v in reversed(rate) if v is not None), 0.0)
        per_sec = tail / (ts.interval_ns / 1e9) if ts.interval_ns else 0.0
        rows.append(
            f"  goodput {per_sec / 1024:>9.1f} KiB/s       "
            f"|{sparkline(rate)}|"
        )
    if blackout is not None:
        cost = blackout.last() or 0.0
        rows.append(
            f"  blackout cost {cost / 1024:>8.1f} KiB    "
            f"|{sparkline(_rate_window(blackout))}|"
        )
    return rows


def render_frame(ts: TimeSeries, title: str) -> str:
    """The dashboard at the last tick as plain text: per switch its good
    ports and FIFO high-water as sparklines, its epoch and an ``ok`` /
    ``DARK`` / ``DOWN`` flag; the workload's SLO rows; the newest span
    events of the mark ring."""
    ticks = ts.ticks
    header = (
        f"{title}  t={fmt_t(ticks[-1] if ticks else 0)}  "
        f"ticks={len(ticks)}  interval={ts.interval_ns / 1e6:g}ms"
    )
    lines = [header, ""]

    names = switch_names(ts)
    label_w = max((len(n) for n in names), default=6)
    for name in names:
        epoch_s = ts.series("epoch", switch=name)
        dark_s = ts.series("blackout_in_progress", switch=name)
        good_s = ts.series("ports_in_state", switch=name, state=GOOD_STATE)
        fifo = _rowwise_max(ts.select("fifo_highwater_bytes", switch=name))

        epoch = epoch_s.last() if epoch_s else None
        dark = dark_s.last() if dark_s else None
        good = good_s.last() if good_s else None
        alive = epoch_s is not None and epoch_s.values and \
            epoch_s.values[-1] is not None
        if not alive:
            status = "DOWN"
        elif dark:
            status = "DARK"
        else:
            status = "ok"
        good_bar = sparkline(good_s.values if good_s else [])
        fifo_bar = sparkline(fifo)
        lines.append(
            f"{name:<{label_w}}  epoch {int(epoch) if epoch is not None else '-':>3}"
            f"  {status:<4}"
            f"  good {int(good) if good is not None else 0:>2} |{good_bar}|"
            f"  fifo^ |{fifo_bar}|"
        )

    slo = traffic_rows(ts)
    if slo:
        lines.append("")
        lines.extend(slo)

    marks = ts.marks()
    if marks:
        lines.append("")
        lines.append("recent reconfiguration events:")
        for m in marks[-6:]:
            lines.append(f"  {fmt_t(m['t_ns']):>10}  {m['component']:<10} {m['event']}")
    return "\n".join(lines) + "\n"


def render_timeseries(doc: Dict[str, Any]) -> str:
    """Ring health, then the dashboard frame at the last tick."""
    health = (
        f"{doc['samples_taken']} samples every {doc['interval_ns'] / 1e6:g} ms, "
        f"{len(doc['series'])} series, {doc['dropped_ticks']} ticks evicted, "
        f"{doc['dropped_series']} series refused"
    )
    frame = render_frame(TimeSeries(doc), title=doc["name"] or "timeseries")
    return f"{health}\n\n{frame.rstrip()}"


ARTIFACT = Schema(
    {
        "name": STR,
        "interval_ns": Int(1),
        **keys(COUNT, "capacity", "samples_taken", "dropped_ticks", "dropped_series"),
        "ticks": [INT],
        "series": [
            {"name": NAME, "labels": {}, "kind": STR, "dropped": COUNT, "values": [Opt(NUM)]}
        ],
        "marks": [{"t_ns": INT, "component": STR, "event": STR}],
    },
    rules=_rules,
    render=render_timeseries,
    indent=None,
)


def read_timeseries(path: str) -> Dict[str, Any]:
    """Load and validate a timeseries artifact from disk."""
    return read(path, TIMESERIES_SCHEMA)
