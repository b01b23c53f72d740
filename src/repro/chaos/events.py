"""The declarative fault-event vocabulary of a chaos schedule.

Every event is a small dataclass with a time offset (``at_ns``, relative
to the schedule's start) and a JSON-stable serialization, mapping onto one
of the failure modes the paper's monitoring machinery recognizes
(sections 6.5, 7): cut and restored cables, intermittent links (flap
trains tuned to provoke the section 6.5.5 skeptic hold-downs), noisy
links, switch crashes and restarts, and host power-offs whose coax stubs
reflect (the section 7 broadcast-storm precondition).

:class:`OnSpanEvent` is the conditional injection: it arms at ``at_ns``
and fires its nested action when the :class:`~repro.obs.spans.
ReconfigTracer` next observes a named span event (``epoch-start``,
``termination``, ``table-loaded``), placing a second fault *inside* a
running reconfiguration -- the adversarial interleaving no hand-written
test reaches reliably.

Each event applies itself by calling its :class:`repro.network.Network`
fault method (``cut_link``, ``crash_switch``, ...), the uniform,
idempotent fault API, so every injection is counted by the
installation's telemetry regardless of which layer initiated it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Type

MS = 1_000_000


@dataclass
class FaultEvent:
    """Base event: a timed fault against the installation."""

    at_ns: int = 0
    kind = "abstract"

    def fault_params(self) -> Dict[str, Any]:
        """The event's fields but ``at_ns``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "at_ns"}

    def apply(self, network) -> None:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at_ns": self.at_ns, **self.fault_params()}

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_params().items()))
        return f"{self.at_ns / 1e6:.0f}ms {self.kind}({params})"


@dataclass
class CutLink(FaultEvent):
    a: int = 0
    b: int = 0
    kind = "cut-link"

    def apply(self, network) -> None:
        network.cut_link(self.a, self.b)


@dataclass
class RestoreLink(FaultEvent):
    a: int = 0
    b: int = 0
    kind = "restore-link"

    def apply(self, network) -> None:
        network.restore_link(self.a, self.b)


@dataclass
class NoisyLink(FaultEvent):
    a: int = 0
    b: int = 0
    kind = "noisy-link"

    def apply(self, network) -> None:
        network.make_link_noisy(self.a, self.b)


@dataclass
class FlapLink(FaultEvent):
    """A train of ``flaps`` cut/restore cycles at ``period_ns`` per half."""

    a: int = 0
    b: int = 0
    flaps: int = 3
    period_ns: int = 100 * MS
    kind = "flap-link"

    def apply(self, network) -> None:
        network.flap_link(self.a, self.b, flaps=self.flaps, period_ns=self.period_ns)

    @property
    def duration_ns(self) -> int:
        return 2 * self.flaps * self.period_ns


@dataclass
class CrashSwitch(FaultEvent):
    index: int = 0
    kind = "crash-switch"

    def apply(self, network) -> None:
        network.crash_switch(self.index)


@dataclass
class RestartSwitch(FaultEvent):
    index: int = 0
    kind = "restart-switch"

    def apply(self, network) -> None:
        network.restart_switch(self.index)


@dataclass
class PowerOffHost(FaultEvent):
    name: str = ""
    reflect: bool = True
    kind = "power-off-host"

    def apply(self, network) -> None:
        network.power_off_host(self.name, reflect=self.reflect)


@dataclass
class OnSpanEvent(FaultEvent):
    """Conditional injection: arm at ``at_ns``, fire ``action`` with
    ``delay_ns`` after the tracer next reports a ``match`` span event."""

    match: str = "epoch-start"
    delay_ns: int = 0
    action: Optional[FaultEvent] = None
    kind = "on-span-event"

    def fault_params(self) -> Dict[str, Any]:
        return {
            "match": self.match,
            "delay_ns": self.delay_ns,
            "action": self.action.to_dict() if self.action else None,
        }

    def apply(self, network) -> None:
        # never applied directly: the Injector arms it against the tracer
        raise RuntimeError("conditional events are armed by the Injector")

    def describe(self) -> str:
        inner = self.action.describe() if self.action else "nothing"
        return (
            f"{self.at_ns / 1e6:.0f}ms on-span-event({self.match} "
            f"+{self.delay_ns / 1e6:.0f}ms -> {inner})"
        )


_EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        CutLink,
        RestoreLink,
        NoisyLink,
        FlapLink,
        CrashSwitch,
        RestartSwitch,
        PowerOffHost,
        OnSpanEvent,
    )
}


def event_from_dict(doc: Dict[str, Any]) -> FaultEvent:
    """Rebuild an event from its :meth:`FaultEvent.to_dict` form."""
    doc = dict(doc)
    kind = doc.pop("kind")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault event kind {kind!r}")
    if cls is OnSpanEvent and doc.get("action") is not None:
        doc["action"] = event_from_dict(doc["action"])
    return cls(**doc)
