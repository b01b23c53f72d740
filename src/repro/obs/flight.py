"""The flight recorder: causally-linked simulation events (§6.7, mechanized).

PR 1's spans say *what* phases an epoch went through; this module records
*why*: every interesting event -- a control-message send or receive, a
port-state transition, a timer arm/fire/cancel, an epoch phase mark, a
forwarding-table load -- carries the id of the event that caused it, so a
table load can be walked back, hop by hop and switch by switch, to the
port death that triggered the epoch.

Causality is maintained two ways, with no cooperation needed from most of
the code:

* **Through the event loop.**  :class:`~repro.sim.engine.Simulator`
  stamps every scheduled event's ``ctx`` slot with the recorder's current
  context and restores it at dispatch, so an event recorded inside a
  deferred task (a CPU-cost-modeled table computation, a retransmission
  timer) inherits the context of whatever scheduled it.
* **Through packets.**  A control-message send records an event and
  stamps its id onto the :class:`~repro.net.packet.Packet`; the receive
  on the far switch records an event whose parent is the send, crossing
  the wire.  The Perfetto exporter renders these pairs as flow arrows.

Events live in bounded per-component ring buffers (the paper's per-switch
circular logs, section 6.7): overflow keeps the newest events and counts
the drops.  When no recorder is attached (``Simulator.recorder is None``,
the default) every hook site is a single attribute load plus a ``None``
test and **no event objects are allocated** -- the same null fast path as
the PR 1 instruments.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.sim.trace import CAT_EPOCH, CAT_MESSAGE

#: events one component's ring holds
COMPONENT_CAPACITY = 65536


class FlightEvent:
    """One recorded event with a causal parent link."""

    __slots__ = ("eid", "t_ns", "component", "category", "name", "parent", "attrs")

    def __init__(
        self,
        eid: int,
        t_ns: int,
        component: str,
        category: str,
        name: str,
        parent: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.eid = eid
        self.t_ns = t_ns
        self.component = component
        self.category = category
        self.name = name
        self.parent = parent
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightEvent #{self.eid} t={self.t_ns} {self.component} "
            f"{self.category}/{self.name} parent={self.parent}>"
        )


class Ring:
    """A bounded circular buffer holding only what it was given (a
    ``deque(maxlen=capacity)``), like the paper's per-switch circular
    logs: overflow evicts the *oldest* item but keeps counting, so
    ``dropped`` reports how much history was lost."""

    __slots__ = ("_buf", "total")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self._buf: Deque[Any] = deque(maxlen=capacity)
        #: total items ever appended (>= len(self))
        self.total = 0

    def append(self, item: Any) -> Any:
        """Append; returns the evicted item when the ring was full."""
        buf = self._buf
        evicted = buf[0] if len(buf) == buf.maxlen else None
        buf.append(item)
        self.total += 1
        return evicted

    @property
    def dropped(self) -> int:
        return self.total - len(self._buf)

    def items(self) -> List[Any]:
        """Retained items, oldest first."""
        return list(self._buf)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class FlightRecorder:
    """Captures causally-linked events into per-component rings.

    Attach to a simulator (``sim.recorder = recorder``) *before* building
    components so boot-time events are captured; ``Network(...,
    flight=True)`` does this.  ``current`` is the causal context: the id
    of the most recent context-advancing event recorded inside the
    simulation event being dispatched right now.  The simulator saves it
    on every scheduled event handle and restores it at dispatch.
    """

    def __init__(self) -> None:
        self.capacity_per_component = COMPONENT_CAPACITY
        #: component -> its ring of events
        self._rings: Dict[str, Ring] = {}
        #: eid -> event, for retained events only (evictions de-index)
        self._index: Dict[int, FlightEvent] = {}
        self._next_eid = 1
        #: causal context: parent for events recorded without an explicit one
        self.current: Optional[int] = None

    # -- recording -----------------------------------------------------------------

    def record(
        self,
        t_ns: int,
        component: str,
        category: str,
        name: str,
        parent: Optional[int] = None,
        advance: bool = True,
        **attrs: Any,
    ) -> int:
        """Record one event; returns its id.

        ``parent`` defaults to the current causal context.  ``advance``
        makes this event the new context, so later events in the same
        handler (and in anything it schedules) chain to it; sends and
        timer bookkeeping pass ``advance=False`` because the causal story
        continues elsewhere (on the receiving switch, at the firing).
        """
        eid = self._next_eid
        self._next_eid += 1
        if parent is None:
            parent = self.current
        event = FlightEvent(eid, t_ns, component, category, name, parent, attrs)
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = Ring(self.capacity_per_component)
        evicted = ring.append(event)
        if evicted is not None:
            self._index.pop(evicted.eid, None)
        self._index[eid] = event
        if advance:
            self.current = eid
        return eid

    @classmethod
    def holding(cls, events: List[FlightEvent]) -> "FlightRecorder":
        """A recorder whose rings hold exactly ``events`` (given in eid
        order, e.g. read back from an exported trace), so the queries
        below answer offline what they answer on a live run."""
        recorder = cls()
        by_component: Dict[str, List[FlightEvent]] = {}
        for event in events:
            by_component.setdefault(event.component, []).append(event)
            recorder._index[event.eid] = event
        for component, held in by_component.items():
            ring = recorder._rings[component] = Ring(len(held))
            for event in held:
                ring.append(event)
        return recorder

    # -- bookkeeping queries ----------------------------------------------------------

    def components(self) -> List[str]:
        return sorted(self._rings)

    @property
    def total_recorded(self) -> int:
        return sum(ring.total for ring in self._rings.values())

    @property
    def total_dropped(self) -> int:
        return sum(ring.dropped for ring in self._rings.values())

    def dropped_by_component(self) -> Dict[str, int]:
        return {
            name: ring.dropped
            for name, ring in sorted(self._rings.items())
            if ring.dropped
        }

    def get(self, eid: int) -> Optional[FlightEvent]:
        return self._index.get(eid)

    def events(
        self,
        component: Optional[str] = None,
        category: Optional[str] = None,
        name: Optional[str] = None,
        epoch: Optional[int] = None,
    ) -> List[FlightEvent]:
        """Retained events matching every given filter, in record order.

        Event ids are assigned in record order and the simulation is
        single-threaded, so sorting by eid is a global causal order.
        """
        rings = (
            [self._rings[component]]
            if component is not None and component in self._rings
            else ([] if component is not None else list(self._rings.values()))
        )
        out = []
        for ring in rings:
            for event in ring:
                if category is not None and event.category != category:
                    continue
                if name is not None and event.name != name:
                    continue
                if epoch is not None and event.attrs.get("epoch") != epoch:
                    continue
                out.append(event)
        out.sort(key=lambda e: e.eid)
        return out

    def last(self, **filters: Any) -> Optional[FlightEvent]:
        matches = self.events(**filters)
        return matches[-1] if matches else None

    # -- the causal query API ----------------------------------------------------------

    def why(self, event: "FlightEvent | int") -> List[FlightEvent]:
        """The causal chain of an event, root first.

        Walks the parent links from ``event`` back as far as retained
        history allows (an evicted ancestor truncates the chain there).
        Parent ids are always smaller than child ids, so the walk cannot
        cycle.
        """
        if isinstance(event, int):
            found = self.get(event)
            if found is None:
                return []
            event = found
        chain = [event]
        while event.parent is not None:
            parent = self._index.get(event.parent)
            if parent is None:
                break  # evicted from its ring: history ends here
            chain.append(parent)
            event = parent
        chain.reverse()
        return chain

    def wave(self, epoch: int) -> List[Dict[str, Any]]:
        """The propagation front of an epoch: when its first event
        (message arrival or phase mark) reached each component, in order
        of arrival.  This is the "message wave" view of a
        reconfiguration: the initiating switch first, then its
        neighbors, then theirs."""
        first: Dict[str, FlightEvent] = {}
        for event in self.events(epoch=epoch):
            if event.category not in (CAT_MESSAGE, CAT_EPOCH):
                continue
            seen = first.get(event.component)
            if seen is None or event.t_ns < seen.t_ns or (
                event.t_ns == seen.t_ns and event.eid < seen.eid
            ):
                first[event.component] = event
        front = sorted(first.values(), key=lambda e: (e.t_ns, e.eid))
        return [
            {
                "component": e.component,
                "t_ns": e.t_ns,
                "eid": e.eid,
                "event": e.name,
            }
            for e in front
        ]


def render_chain(chain: List[FlightEvent]) -> str:
    """A causal chain as indented text, root first."""
    lines = []
    for depth, event in enumerate(chain):
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(event.attrs.items()) if v is not None
        )
        lines.append(
            f"{'  ' * depth}{event.t_ns / 1e6:>10.3f} ms  "
            f"[{event.component}] {event.name}" + (f" ({attrs})" if attrs else "")
        )
    return "\n".join(lines)
