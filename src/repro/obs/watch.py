"""The watch dashboard: sampler rings as terminal sparklines.

``python -m repro.obs watch FILE`` is the operator's view the paper
describes around §6.7 -- "when did the net reconfigure, and which
switches went dark?" -- replayed from a recorded
``repro.obs.timeseries/1`` artifact with nothing but ANSI escapes:

* one row per switch: good-port count (current + sparkline), FIFO
  high-water sparkline, epoch number, and an ``ok`` / ``DARK`` flag from
  the blackout collector;
* a tail of recent reconfiguration span events (the sampler's mark ring).

Rendering is split from I/O: :func:`render_frame` is a pure function of
a :class:`~repro.obs.timeseries.TimeSeries` view, so tests (and the
timeseries document's report, which is the frame at its last tick)
exercise the exact pixels the dashboard shows without a terminal in the
loop; :func:`watch_replay` steps through the artifact tick by tick.
"""

from __future__ import annotations

import re
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro.obs.timeseries import SeriesData, TimeSeries

#: nine intensity levels; index 0 (a space) is "zero", None renders as ``·``
SPARK_CHARS = " ▁▂▃▄▅▆▇█"
GAP_CHAR = "·"

#: the PortState value a fully configured trunk settles in
GOOD_STATE = "s.switch.good"

ANSI_HOME_CLEAR = "\x1b[H\x1b[2J"


def sparkline(
    values: Sequence[Optional[float]],
    width: int = 32,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """The last ``width`` samples as one character each.

    Scale is [lo, hi] (defaulting to the window's own min/max, with the
    floor pulled down to 0 for non-negative data so "3 of 4 ports good"
    does not render as a full-height bar).  ``None`` samples -- a crashed
    switch, a not-yet-created series -- render as ``·``.
    """
    window = list(values)[-width:] if width > 0 else list(values)
    if not window:
        return ""
    present = [v for v in window if v is not None]
    if not present:
        return GAP_CHAR * len(window)
    wlo = min(present) if lo is None else lo
    whi = max(present) if hi is None else hi
    if wlo > 0 and lo is None:
        wlo = 0.0
    span = whi - wlo
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


def traffic_rows(ts: TimeSeries, width: int = 32) -> List[str]:
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
        f"done {int(last_completed):>4} |{sparkline(active.values, width)}|"
    )
    if delivered is not None:
        rate = _rate_window(delivered)
        tail = next((v for v in reversed(rate) if v is not None), 0.0)
        per_sec = tail / (ts.interval_ns / 1e9) if ts.interval_ns else 0.0
        rows.append(
            f"  goodput {per_sec / 1024:>9.1f} KiB/s       "
            f"|{sparkline(rate, width)}|"
        )
    if blackout is not None:
        cost = blackout.last() or 0.0
        rows.append(
            f"  blackout cost {cost / 1024:>8.1f} KiB    "
            f"|{sparkline(_rate_window(blackout), width)}|"
        )
    return rows


def render_frame(
    ts: TimeSeries,
    now_ns: Optional[int] = None,
    width: int = 32,
    mark_tail: int = 6,
    title: str = "",
) -> str:
    """One dashboard frame as plain text (no escapes, no I/O)."""
    ticks = ts.ticks
    now = now_ns if now_ns is not None else (ticks[-1] if ticks else 0)
    header = (
        f"{title or 'repro.obs watch'}  t={fmt_t(now)}  "
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
        good_bar = sparkline(good_s.values if good_s else [], width)
        fifo_bar = sparkline(fifo, width)
        lines.append(
            f"{name:<{label_w}}  epoch {int(epoch) if epoch is not None else '-':>3}"
            f"  {status:<4}"
            f"  good {int(good) if good is not None else 0:>2} |{good_bar}|"
            f"  fifo^ |{fifo_bar}|"
        )

    slo = traffic_rows(ts, width=width)
    if slo:
        lines.append("")
        lines.extend(slo)

    marks = ts.marks()
    if now_ns is not None:
        marks = [m for m in marks if m["t_ns"] <= now_ns]
    if marks:
        lines.append("")
        lines.append("recent reconfiguration events:")
        for m in marks[-mark_tail:]:
            lines.append(f"  {fmt_t(m['t_ns']):>10}  {m['component']:<10} {m['event']}")
    return "\n".join(lines) + "\n"


def truncate_document(doc: Dict[str, Any], upto_tick: int) -> Dict[str, Any]:
    """The artifact as it would have looked after ``upto_tick`` samples
    (replay's stepping primitive)."""
    ticks = doc["ticks"][:upto_tick]
    horizon = ticks[-1] if ticks else 0
    return {
        **doc,
        "samples_taken": min(doc["samples_taken"], upto_tick),
        "ticks": ticks,
        "series": [
            {**entry, "values": entry["values"][:upto_tick]}
            for entry in doc["series"]
        ],
        "marks": [m for m in doc["marks"] if m["t_ns"] <= horizon],
    }


# -- the driver (I/O lives here, not in render_frame) ----------------------------------


#: replay pacing: frames per second, and recorded ticks per frame
FPS = 10.0
STEP = 1


def watch_replay(ts: TimeSeries, stream: Optional[TextIO] = None, sleep: bool = True) -> None:
    """Step through a recorded artifact tick by tick, redrawing in place."""
    out = stream if stream is not None else sys.stdout
    total = len(ts.ticks)
    title = f"replay {ts.doc.get('name') or 'timeseries'}"
    for upto in range(1, total + 1, STEP):
        view = TimeSeries(truncate_document(ts.doc, upto))
        now = view.ticks[-1] if view.ticks else 0
        frame = render_frame(view, now_ns=now, title=title)
        out.write(ANSI_HOME_CLEAR + frame)
        out.flush()
        if sleep:
            time.sleep(1.0 / FPS)
