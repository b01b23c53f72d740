"""The six port states of section 6.5.1 and their legal transitions."""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import FrozenSet, Mapping


class PortState(Enum):
    """Dynamic classification of a switch port (Figure 8)."""

    DEAD = "s.dead"
    CHECKING = "s.checking"
    HOST = "s.host"
    SWITCH_WHO = "s.switch.who"
    SWITCH_LOOP = "s.switch.loop"
    SWITCH_GOOD = "s.switch.good"

    @property
    def is_switch(self) -> bool:
        return self in (PortState.SWITCH_WHO, PortState.SWITCH_LOOP, PortState.SWITCH_GOOD)


#: transitions owned by the status sampler (black arrows of Figure 8)
SAMPLER_TRANSITIONS: Mapping[PortState, FrozenSet[PortState]] = MappingProxyType({
    PortState.DEAD: frozenset({PortState.CHECKING}),
    PortState.CHECKING: frozenset({PortState.HOST, PortState.SWITCH_WHO, PortState.DEAD}),
    PortState.HOST: frozenset({PortState.DEAD}),
    PortState.SWITCH_WHO: frozenset({PortState.DEAD}),
    PortState.SWITCH_LOOP: frozenset({PortState.DEAD}),
    PortState.SWITCH_GOOD: frozenset({PortState.DEAD}),
})

#: transitions owned by the connectivity monitor (gray arrows of Figure 8)
MONITOR_TRANSITIONS: Mapping[PortState, FrozenSet[PortState]] = MappingProxyType({
    PortState.SWITCH_WHO: frozenset({PortState.SWITCH_LOOP, PortState.SWITCH_GOOD}),
    PortState.SWITCH_LOOP: frozenset({PortState.SWITCH_WHO}),
    PortState.SWITCH_GOOD: frozenset({PortState.SWITCH_WHO}),
})


def transition_allowed(src: PortState, dst: PortState) -> bool:
    """Whether Figure 8 permits the transition (by either component)."""
    return dst in SAMPLER_TRANSITIONS.get(src, frozenset()) or dst in MONITOR_TRANSITIONS.get(
        src, frozenset()
    )


#: transitions that must trigger a network-wide reconfiguration
RECONFIGURING_TRANSITIONS = frozenset(
    {
        (PortState.SWITCH_WHO, PortState.SWITCH_GOOD),
        (PortState.SWITCH_GOOD, PortState.SWITCH_WHO),
        (PortState.SWITCH_GOOD, PortState.DEAD),
    }
)
