"""Fault schedules: a timed event list, its sampler, and the injector.

A :class:`Schedule` is fully declarative -- topology name, seed, event
list -- and serializes to JSON, so a failing schedule travels as a CI
artifact and replays bit-identically anywhere.

The :class:`ScheduleSampler` draws random schedules from a forked
:class:`~repro.sim.rng.RngRegistry` stream.  Sampling happens entirely
before the simulation runs and from streams independent of the Network's
own registry, so fault generation can never perturb simulation
determinism: the same campaign seed always produces the same schedules
over the same simulated histories.

The :class:`Injector` arms a schedule onto a live Network: timed events
are pre-scheduled on the simulator clock; conditional
:class:`~repro.chaos.events.OnSpanEvent` entries subscribe to the
installation's :class:`~repro.obs.spans.ReconfigTracer` feed and fire
when their span event next occurs -- landing faults inside running
reconfigurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.events import (
    MS,
    CrashSwitch,
    CutLink,
    FaultEvent,
    FlapLink,
    NoisyLink,
    OnSpanEvent,
    PowerOffHost,
    RestartSwitch,
    RestoreLink,
    event_from_dict,
)
from repro.topology.generators import TopologySpec

SEC = 1_000_000_000

#: schema tag for serialized schedules and reproducer artifacts
SCHEDULE_SCHEMA = "repro.chaos/1"


@dataclass
class Schedule:
    """One adversarial run: a topology, a seed, and timed fault events."""

    topology: str
    seed: int
    events: List[FaultEvent] = field(default_factory=list)
    name: str = ""

    def sorted_events(self) -> List[FaultEvent]:
        return sorted(self.events, key=lambda e: (e.at_ns, e.kind))

    @property
    def horizon_ns(self) -> int:
        """When the last scheduled activity (flap trains included) ends."""
        end = 0
        for event in self.events:
            tail = event.at_ns
            if isinstance(event, FlapLink):
                tail += event.duration_ns
            if isinstance(event, OnSpanEvent):
                tail += event.delay_ns
                if isinstance(event.action, FlapLink):
                    tail += event.action.duration_ns
            end = max(end, tail)
        return end

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEDULE_SCHEMA,
            "topology": self.topology,
            "seed": self.seed,
            "name": self.name,
            "events": [e.to_dict() for e in self.sorted_events()],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Schedule":
        if doc.get("schema") != SCHEDULE_SCHEMA:
            raise ValueError(f"expected schema {SCHEDULE_SCHEMA!r}, got {doc.get('schema')!r}")
        return cls(
            topology=doc["topology"],
            seed=doc["seed"],
            name=doc.get("name", ""),
            events=[event_from_dict(e) for e in doc["events"]],
        )

    def describe(self) -> str:
        lines = [f"schedule {self.name or '?'} on {self.topology} seed={self.seed}"]
        lines.extend(f"  {e.describe()}" for e in self.sorted_events())
        return "\n".join(lines)


# -- what a sampled schedule looks like ------------------------------------------

#: events per schedule (inclusive bounds)
MIN_EVENTS = 3
MAX_EVENTS = 8
#: window within which event times are drawn (kept tight so a
#: 50-schedule smoke campaign stays within a couple of minutes)
HORIZON_NS = 4 * SEC
#: relative likelihood of each event family
WEIGHTS = {
    "cut-link": 3.0,
    "restore-link": 2.0,
    "flap-link": 1.5,
    "noisy-link": 1.0,
    "crash-switch": 2.0,
    "restart-switch": 2.0,
    "power-off-host": 0.5,
    "on-span-event": 1.5,
}
#: flap trains: bounded so skeptic hold-downs stay in the seconds
MAX_FLAPS = 4
FLAP_PERIOD_NS = (40 * MS, 250 * MS)
#: fraction of switches that may be down simultaneously
MAX_DEAD_FRACTION = 0.5


class ScheduleSampler:
    """Draw random-but-reproducible schedules for one topology.

    The sampler tracks the *planned* installation state (which links it
    has cut, which switches it has crashed) so drawn events are sensible
    -- restores target cut links, restarts target crashed switches, and
    the network never loses more than ``MAX_DEAD_FRACTION`` of its
    switches.  Conditional events may not fire at run time, so every
    fault application stays idempotent at the Network layer.
    """

    SPAN_MATCHES = ("epoch-start", "termination", "table-loaded")

    def __init__(
        self,
        spec: TopologySpec,
        rng,
        host_names: Tuple[str, ...] = (),
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.host_names = host_names
        #: unique switch-index pairs with at least one cable
        pairs = {(min(a, b), max(a, b)) for a, _pa, b, _pb in spec.cables if a != b}
        self.pairs = sorted(pairs)

    def sample(self, name: str = "") -> Schedule:
        rng = self.rng
        n_events = rng.randint(MIN_EVENTS, MAX_EVENTS)
        cut: set = set()
        noisy: set = set()
        dead: set = set()
        hosts_off: set = set()
        max_dead = max(1, int(len(self.spec.uids) * MAX_DEAD_FRACTION))
        events: List[FaultEvent] = []

        for _ in range(n_events):
            at_ns = rng.randrange(0, HORIZON_NS)
            event = self._draw_event(at_ns, cut, noisy, dead, hosts_off, max_dead)
            if event is not None:
                events.append(event)

        # heal the noise at the end so the final oracle state is clean, but
        # leave cut links cut and crashed switches down: partitions are
        # legal final states the invariants must handle, whereas a NOISY
        # link's membership in the oracle graph is probabilistic
        tail = HORIZON_NS
        for pair in sorted(noisy):
            tail += 50 * MS
            events.append(RestoreLink(at_ns=tail, a=pair[0], b=pair[1]))
        return Schedule(topology=self.spec.name, seed=0, events=events, name=name)

    # -- single event draws --------------------------------------------------------

    def _draw_event(
        self, at_ns: int, cut, noisy, dead, hosts_off, max_dead: int
    ) -> Optional[FaultEvent]:
        rng = self.rng
        kinds = sorted(WEIGHTS)
        weights = [WEIGHTS[k] for k in kinds]
        for _attempt in range(8):
            kind = rng.choices(kinds, weights=weights)[0]
            event = self._make(kind, at_ns, cut, noisy, dead, hosts_off, max_dead)
            if event is not None:
                return event
        return None

    def _make(
        self, kind: str, at_ns: int, cut, noisy, dead, hosts_off, max_dead: int
    ) -> Optional[FaultEvent]:
        rng = self.rng
        if kind == "cut-link":
            candidates = [p for p in self.pairs if p not in cut]
            if not candidates:
                return None
            pair = rng.choice(candidates)
            cut.add(pair)
            return CutLink(at_ns=at_ns, a=pair[0], b=pair[1])
        if kind == "restore-link":
            if not cut:
                return None
            pair = rng.choice(sorted(cut))
            cut.discard(pair)
            return RestoreLink(at_ns=at_ns, a=pair[0], b=pair[1])
        if kind == "noisy-link":
            candidates = [p for p in self.pairs if p not in cut and p not in noisy]
            if not candidates:
                return None
            pair = rng.choice(candidates)
            noisy.add(pair)
            return NoisyLink(at_ns=at_ns, a=pair[0], b=pair[1])
        if kind == "flap-link":
            candidates = [p for p in self.pairs if p not in cut]
            if not candidates:
                return None
            pair = rng.choice(candidates)
            return FlapLink(
                at_ns=at_ns,
                a=pair[0],
                b=pair[1],
                flaps=rng.randint(2, MAX_FLAPS),
                period_ns=rng.randrange(*FLAP_PERIOD_NS),
            )
        if kind == "crash-switch":
            if len(dead) >= max_dead:
                return None
            candidates = [i for i in range(len(self.spec.uids)) if i not in dead]
            index = rng.choice(candidates)
            dead.add(index)
            return CrashSwitch(at_ns=at_ns, index=index)
        if kind == "restart-switch":
            if not dead:
                return None
            index = rng.choice(sorted(dead))
            dead.discard(index)
            return RestartSwitch(at_ns=at_ns, index=index)
        if kind == "power-off-host":
            candidates = [h for h in self.host_names if h not in hosts_off]
            if not candidates:
                return None
            name = rng.choice(candidates)
            hosts_off.add(name)
            return PowerOffHost(at_ns=at_ns, name=name, reflect=rng.random() < 0.7)
        if kind == "on-span-event":
            action = self._make(
                rng.choice(["cut-link", "crash-switch", "flap-link"]),
                0,
                cut,
                noisy,
                dead,
                hosts_off,
                max_dead,
            )
            if action is None:
                return None
            return OnSpanEvent(
                at_ns=at_ns,
                match=rng.choice(self.SPAN_MATCHES),
                delay_ns=rng.randrange(0, 60 * MS),
                action=action,
            )
        raise ValueError(f"unknown kind {kind!r}")


class Injector:
    """Arms a schedule onto a live Network.

    Timed events are scheduled on the simulator clock relative to
    ``base_ns``; conditional events subscribe to the tracer feed.  Every
    injection calls a ``Network`` fault method, which counts what
    actually fired in ``Network.faults``.
    """

    def __init__(self, network, schedule: Schedule) -> None:
        self.network = network
        self.schedule = schedule
        #: conditional events armed but never fired
        self.unfired: List[OnSpanEvent] = []
        self._armed: List[Tuple[OnSpanEvent, List[bool]]] = []
        self._listening = False

    def arm(self, base_ns: Optional[int] = None) -> None:
        sim = self.network.sim
        base = sim.now if base_ns is None else base_ns
        for event in self.schedule.sorted_events():
            if isinstance(event, OnSpanEvent):
                sim.at(base + event.at_ns, self._arm_conditional, event)
            else:
                sim.at(base + event.at_ns, self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        event.apply(self.network)

    # -- conditional events ----------------------------------------------------------

    def _arm_conditional(self, event: OnSpanEvent) -> None:
        fired = [False]
        self._armed.append((event, fired))
        self.unfired.append(event)
        if not self._listening and self.network.tracer is not None:
            self.network.tracer.add_listener(self._on_span_event)
            self._listening = True

    def _on_span_event(self, time_ns: int, component: str, name: str, attrs: Dict) -> None:
        for event, fired in self._armed:
            if fired[0] or name != event.match:
                continue
            fired[0] = True
            self.unfired.remove(event)
            self.network.sim.after(event.delay_ns, self._fire, event.action)
