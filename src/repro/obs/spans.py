"""Span-style reconfiguration tracing (the §6.7 merged log, structured).

The paper's debugging workflow retrieved per-switch circular logs over SRP
and merged them into one clock-normalized timeline.  This module builds
the quantitative counterpart while the simulation runs: every epoch
becomes a :class:`Span` whose events mark the phases of a reconfiguration

    trigger (port death) -> epoch start -> tree stable (termination)
    -> topology at root -> tables loaded -> reopen

and whose per-switch close/reopen intervals yield the *blackout*: the time
a switch could not carry host traffic because its forwarding table held
only one-hop entries (step 1 of the algorithm) until its step-5 load.
:class:`ReconfigTracer` reads the Autopilot event feed wired up by
:class:`repro.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: spans kept; a span begun beyond this many is counted in ``dropped``
MAX_SPANS = 10_000


@dataclass
class SpanEvent:
    """One timestamped point inside a span."""

    time_ns: int
    name: str
    component: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = {"t_ns": self.time_ns, "event": self.name}
        if self.component:
            out["component"] = self.component
        if self.attrs:
            out["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        return out


@dataclass
class Span:
    """A named interval with attached events and attributes."""

    name: str
    key: Any
    start_ns: int
    end_ns: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def event(self, time_ns: int, name: str, component: str = "", **attrs: Any) -> None:
        self.events.append(SpanEvent(time_ns, name, component, attrs))

    def first_event(self, name: str) -> Optional[SpanEvent]:
        for ev in self.events:
            if ev.name == name:
                return ev
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "key": _jsonable(self.key),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "events": [ev.to_dict() for ev in self.events],
        }


class ReconfigTracer:
    """Turns the Autopilot event feed into per-epoch reconfiguration spans.

    One span per epoch (key = epoch number).  Feed events, per switch:

    * ``trigger``       -- a port-state change demanded a reconfiguration
    * ``epoch-start``   -- the switch entered the epoch (step 1: its table
                           drops to one-hop entries; the switch *closes*)
    * ``unconfigure``   -- a stale (false-root) configuration was dropped;
                           the switch closes again
    * ``termination``   -- the root's unstable->stable transition (§4.1):
                           the tree is stable and the topology is at root
    * ``table-loaded``  -- step 5 finished at one switch (it *reopens*)

    The span ends when every switch that entered the epoch has reopened.
    """

    SPAN_NAME = "reconfiguration"

    def __init__(self) -> None:
        self._open: Dict[Any, Span] = {}
        self._finished: List[Span] = []
        #: spans dropped because the store was full
        self.dropped = 0
        #: epoch -> {switch name -> [closed_ns, reopened_ns|None]}
        self._shutters: Dict[int, Dict[str, List[Optional[int]]]] = {}
        #: external observers of the raw event feed, fn(time_ns,
        #: component, event, attrs).  The chaos injector uses this to
        #: trigger faults on mid-reconfiguration phase transitions.
        self._listeners: List[Any] = []
        #: the latest trigger, (time_ns, component, attrs), not yet
        #: recorded onto the epoch it caused
        self._last_trigger: Optional[tuple] = None

    def begin(self, key: Any, time_ns: int, **attrs: Any) -> Span:
        """Open a reconfiguration span.  Re-opening a live key is an error in the caller;
        the old span is force-closed and flagged, not silently lost."""
        stale = self._open.pop(key, None)
        if stale is not None:
            stale.attrs["unclosed"] = True
            self._finished.append(stale)
        span = Span(name=self.SPAN_NAME, key=key, start_ns=time_ns, attrs=dict(attrs))
        if len(self._open) + len(self._finished) >= MAX_SPANS:
            self.dropped += 1
        else:
            self._open[key] = span
        return span

    def get(self, key: Any) -> Optional[Span]:
        return self._open.get(key)

    def event(self, key: Any, time_ns: int, name: str, component: str = "",
              **attrs: Any) -> None:
        span = self._open.get(key)
        if span is not None:
            span.event(time_ns, name, component, **attrs)

    def end(self, key: Any, time_ns: int, **attrs: Any) -> Optional[Span]:
        span = self._open.pop(key, None)
        if span is None:
            return None
        span.end_ns = time_ns
        span.attrs.update(attrs)
        self._finished.append(span)
        return span

    # -- queries --------------------------------------------------------------

    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def finished_spans(self) -> List[Span]:
        return list(self._finished)

    def all_spans(self) -> List[Span]:
        return self._finished + list(self._open.values())

    def unclosed(self) -> List[Span]:
        """Spans never ended (still open, or force-closed by a re-begin):
        in a converged network every reconfiguration span must be closed,
        so anything here is a protocol stall worth investigating."""
        flagged = [s for s in self._finished if s.attrs.get("unclosed")]
        return flagged + list(self._open.values())

    def add_listener(self, fn) -> None:
        """Subscribe to every switch event as it is fed to the tracer."""
        self._listeners.append(fn)

    # -- the feed (called via Autopilot.on_obs_event) -----------------------------

    def switch_event(self, time_ns: int, component: str, event: str,
                     attrs: Dict[str, Any]) -> None:
        for listener in self._listeners:
            listener(time_ns, component, event, attrs)
        epoch = attrs.get("epoch")
        if event == "trigger":
            # recorded onto the *next* epoch once it starts; keep the most
            # recent trigger so the span can name its cause
            self._last_trigger = (time_ns, component, dict(attrs))
            return
        if epoch is None:
            return
        if event == "epoch-start":
            span = self.get(epoch)
            if span is None:
                span = self.begin(epoch, time_ns, epoch=epoch)
                trigger = self._last_trigger
                if trigger is not None and trigger[0] <= time_ns:
                    t, comp, tattrs = trigger
                    span.event(t, "trigger", comp, **tattrs)
                    self._last_trigger = None
            span.event(time_ns, "epoch-start", component, **attrs)
            self._close_shutter(epoch, component, time_ns)
        elif event == "unconfigure":
            self.event(epoch, time_ns, "unconfigure", component, **attrs)
            self._close_shutter(epoch, component, time_ns)
        elif event == "termination":
            span = self.get(epoch)
            if span is not None and span.first_event("tree-stable") is None:
                span.event(time_ns, "tree-stable", component, **attrs)
                span.event(time_ns, "topology-at-root", component,
                           switches=attrs.get("switches"))
        elif event == "table-loaded":
            self.event(epoch, time_ns, "table-loaded", component, **attrs)
            self._open_shutter(epoch, component, time_ns)
        elif event == "config-timeout":
            self.event(epoch, time_ns, "config-timeout", component, **attrs)

    # -- blackout accounting ----------------------------------------------------

    def _close_shutter(self, epoch: int, component: str, time_ns: int) -> None:
        shutters = self._shutters.setdefault(epoch, {})
        entry = shutters.get(component)
        if entry is None or entry[1] is not None:
            # first closure, or closing again after a premature reopen
            shutters[component] = [time_ns, None]

    def _open_shutter(self, epoch: int, component: str, time_ns: int) -> None:
        shutters = self._shutters.setdefault(epoch, {})
        entry = shutters.get(component)
        if entry is None:
            shutters[component] = [time_ns, time_ns]
            entry = shutters[component]
        if entry[1] is None:
            entry[1] = time_ns
        if all(e[1] is not None for e in shutters.values()):
            span = self.get(epoch)
            if span is not None:
                reopen = max(e[1] for e in shutters.values())
                span.event(reopen, "reopen", component)
                self.end(epoch, reopen)

    def blackouts(self, epoch: int) -> Dict[str, Dict[str, Optional[int]]]:
        """Per-switch blackout intervals for one epoch."""
        out: Dict[str, Dict[str, Optional[int]]] = {}
        for component, (closed, reopened) in sorted(
            self._shutters.get(epoch, {}).items()
        ):
            out[component] = {
                "closed_ns": closed,
                "reopened_ns": reopened,
                "blackout_ns": None if reopened is None else reopened - closed,
            }
        return out

    def epochs(self) -> List[int]:
        return sorted(self._shutters)

    def span_summary(self) -> List[Dict[str, Any]]:
        """One dict per epoch span, blackouts included."""
        out = []
        for span in self.all_spans():
            doc = span.to_dict()
            doc["blackouts"] = self.blackouts(span.key)
            durations = [
                b["blackout_ns"] for b in doc["blackouts"].values()
                if b["blackout_ns"] is not None
            ]
            doc["max_blackout_ns"] = max(durations) if durations else None
            stable = span.first_event("tree-stable")
            doc["tree_stable_ns"] = stable.time_ns if stable else None
            out.append(doc)
        return out

    def windows(self) -> List[Dict[str, Any]]:
        """The :meth:`span_summary` entries that own a stretch of the run:
        every closed span, and the open span of the highest epoch.  A
        lower span left open was superseded before it closed (boot epochs
        are, within a millisecond) and owns no window -- run to infinity,
        it would claim the whole run's traffic."""
        summary = self.span_summary()
        last = max((doc["key"] for doc in summary), default=None)
        return [doc for doc in summary if doc["end_ns"] is not None or doc["key"] == last]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
