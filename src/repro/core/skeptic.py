"""The status skeptic and connectivity skeptic (section 6.5.5).

Both provide the stabilizing hysteresis that keeps intermittent equipment
from thrashing the network: faults are answered quickly, but a port that
keeps failing is held out of service for progressively longer periods,
bounding the reconfiguration rate an unstable link can cause.

* The **status skeptic** controls the error-free *holding period* a port
  must exhibit before leaving s.dead.  Transitions to s.dead lengthen the
  next holding period; time spent in the working states shortens it.
* The **connectivity skeptic** controls how many consecutive good probe
  replies are required before s.switch.who is promoted to s.switch.good.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import MS, SEC


@dataclass
class SkepticParams:
    """Tuning knobs shared by both skeptics."""

    #: holding period after the first failure
    min_hold_ns: int = 200 * MS
    #: ceiling on the holding period
    max_hold_ns: int = 60 * SEC
    #: multiplier applied on each new transition to s.dead
    growth: float = 2.0
    #: good time required to halve the holding period
    decay_interval_ns: int = 10 * SEC


class StatusSkeptic:
    """Per-port hold-down state for the s.dead -> s.checking transition."""

    def __init__(self, params: SkepticParams) -> None:
        self.params = params
        self.hold_ns = params.min_hold_ns
        self._good_since: int = 0
        self.failures = 0

    def on_failure(self, now: int) -> None:
        """The port was sent to s.dead: lengthen the next holding period."""
        self.failures += 1
        if self.failures > 1:
            self.hold_ns = min(
                int(self.hold_ns * self.params.growth), self.params.max_hold_ns
            )

    def on_good_period_start(self, now: int) -> None:
        """The port entered a working state (s.host or s.switch.*)."""
        self._good_since = now

    def credit_good_time(self, now: int) -> None:
        """Apply decay for time spent working (called periodically)."""
        while (
            now - self._good_since >= self.params.decay_interval_ns
            and self.hold_ns > self.params.min_hold_ns
        ):
            self.hold_ns = max(self.params.min_hold_ns, self.hold_ns // 2)
            self._good_since += self.params.decay_interval_ns
            if self.failures:
                self.failures -= 1

    def required_hold(self) -> int:
        return self.hold_ns


#: ceiling on the connectivity skeptic's required good replies
CONN_MAX_REQUIRED = 64
#: good time that halves the connectivity skeptic's requirement
CONN_DECAY_INTERVAL_NS = 30 * SEC


class ConnectivitySkeptic:
    """Per-port requirement on good probe replies before s.switch.good."""

    def __init__(self, base_required: int = 2, growth: float = 2.0) -> None:
        self.base_required = base_required
        self.growth = growth
        self.required = base_required
        self._good_since = 0

    def on_demotion(self, now: int) -> None:
        """s.switch.good was lost: demand a longer good streak next time."""
        self.required = min(max(self.required + 1, int(self.required * self.growth)),
                            CONN_MAX_REQUIRED) if self.growth > 1.0 else self.base_required
        self._good_since = now

    def on_promoted(self, now: int) -> None:
        self._good_since = now

    def credit_good_time(self, now: int) -> None:
        while (
            now - self._good_since >= CONN_DECAY_INTERVAL_NS
            and self.required > self.base_required
        ):
            self.required = max(self.base_required, self.required // 2)
            self._good_since += CONN_DECAY_INTERVAL_NS

    def satisfied(self, consecutive_good: int) -> bool:
        return consecutive_good >= self.required
