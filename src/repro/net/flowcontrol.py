"""TAXI command alphabet and flow-control slot timing (sections 6.1, 6.2).

Every 256th slot on a channel is a flow-control slot carrying one of the
directives below.  We do not simulate each 20.48 microsecond slot as an
event; instead a :class:`FlowControlSender` latches the *desired* directive
and models the worst-case slot alignment: a change becomes visible on the
wire at the next flow-control slot boundary for the channel's phase, and
reaches the far end one propagation delay later.  The receiving side keeps
only the latched last-received directive -- which is also exactly what the
link unit derives its chronic status bits from.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

from repro.constants import BYTE_TIME_NS, FLOW_CONTROL_SLOT_PERIOD
from repro.sim.engine import Simulator

#: nanoseconds between successive flow-control slots on a channel
FC_SLOT_PERIOD_NS = FLOW_CONTROL_SLOT_PERIOD * BYTE_TIME_NS


class Directive(Enum):
    """Flow-control directives (section 6.1)."""

    START = "start"
    STOP = "stop"
    HOST = "host"    # sent by host controllers in place of start
    IDHY = "idhy"    # "I don't hear you": force the far port to s.checking
    PANIC = "panic"  # reset the far link unit (paper: not yet implemented)
    NONE = "none"    # no directive received (e.g. alternate host port)


def next_fc_slot(now: int, phase: int) -> int:
    """First flow-control slot boundary at or after ``now`` for ``phase``."""
    if now <= phase:
        return phase
    elapsed = now - phase
    slots = -(-elapsed // FC_SLOT_PERIOD_NS)  # ceiling division
    return phase + slots * FC_SLOT_PERIOD_NS


class FlowControlSender:
    """Transmit-side latch for the directive carried on a channel.

    ``deliver`` is called with the directive when it arrives at the far
    end (slot boundary + propagation delay).  A forced directive (idhy)
    overrides the level-driven start/stop until released.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[["Directive"], None],
        propagation_ns: int,
        phase: int = 0,
        is_host: bool = False,
    ) -> None:
        self.sim = sim
        self.deliver = deliver
        self.propagation_ns = propagation_ns
        self.phase = phase % FC_SLOT_PERIOD_NS
        self.is_host = is_host
        #: directive implied by the local FIFO level
        self._level_directive = Directive.HOST if is_host else Directive.START
        #: override directive (idhy / panic / silence), or None
        self._forced: Optional[Directive] = None
        #: last directive actually emitted; None means nothing latched at
        #: the far end yet, so the first slot announces the current state
        self._on_wire: Optional[Directive] = None
        self._pending = None
        #: one-shot directive (panic) waiting for the next slot
        self._pulse: Optional[Directive] = None
        self._muted = False
        self._schedule()

    def _current(self) -> Directive:
        if self._forced is not None:
            return self._forced
        return self._level_directive

    def set_level_directive(self, directive: Directive) -> None:
        """Set the directive implied by the receive-FIFO level."""
        if self.is_host and directive is Directive.START:
            directive = Directive.HOST  # hosts send host instead of start
        if self.is_host and directive is Directive.STOP:
            # host controllers may not send stop (section 6.2)
            directive = Directive.HOST
        self._level_directive = directive
        self._schedule()

    def force(self, directive: Optional[Directive]) -> None:
        """Force a directive (idhy, none) or release the override."""
        self._forced = directive
        self._schedule()

    def pulse(self, directive: Directive) -> None:
        """Send one special-purpose directive (panic) at the next slot,
        then resume the steady directive."""
        self._pulse = directive
        if self._pending is None and not self._muted:
            slot = next_fc_slot(self.sim.now, self.phase)
            self._pending = self.sim.at(slot, self._emit)

    def mute(self, muted: bool) -> None:
        """Silence the sender entirely (an alternate host port transmits
        only sync commands, no directives).  Unmuting re-announces."""
        self._muted = muted
        if not muted:
            self.reannounce()

    def _schedule(self) -> None:
        if self._muted:
            return
        if self._current() == self._on_wire:
            return
        if self._pending is not None:
            return  # a slot is already scheduled; it will pick up the latest value
        slot = next_fc_slot(self.sim.now, self.phase)
        self._pending = self.sim.at(slot, self._emit)

    def _emit(self) -> None:
        self._pending = None
        if self._muted:
            return
        if self._pulse is not None:
            pulse = self._pulse
            self._pulse = None
            self.sim.after(self.propagation_ns, self.deliver, pulse)
            self._on_wire = None  # the steady value goes out next slot
            self._schedule()
            return
        directive = self._current()
        if directive == self._on_wire:
            return
        self._on_wire = directive
        self.sim.after(self.propagation_ns, self.deliver, directive)
        # the value may have changed again while waiting for the slot
        self._schedule()

    def reannounce(self) -> None:
        """Re-emit the current directive (link restored after an outage)."""
        self._on_wire = None
        self._schedule()


class FlowControlReceiver:
    """Receive-side latch: remembers the last directive received.

    Section 6.2 notes a design oversight: a port receiving *no* flow
    control keeps acting on the last directive received.  We reproduce
    that: when the far end goes silent the latched value persists, and the
    status sampler has to notice via the StartSeen counter.
    """

    def __init__(
        self,
        on_change: Optional[Callable[[Directive], None]] = None,
        initial: Directive = Directive.NONE,
    ) -> None:
        #: the power-up latch is physically unpredictable (section 6.2);
        #: callers choose what the hardware happened to hold
        self.last: Directive = initial
        #: whether the latched directive allows sending packet bytes,
        #: written with ``last`` (every FIFO pass reads it)
        self.transmission_allowed = initial is Directive.START or initial is Directive.HOST
        self.on_change = on_change

    def receive(self, directive: Directive) -> None:
        if directive is not self.last:
            self.last = directive
            self.transmission_allowed = directive is Directive.START or directive is Directive.HOST
            if self.on_change is not None:
                self.on_change(directive)
