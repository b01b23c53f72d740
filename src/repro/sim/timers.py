"""Timer helpers and the Autopilot-style non-preemptive task scheduler.

The paper (section 5.4) describes Autopilot as interrupt routines plus
process-level tasks run to completion by a non-preemptive scheduler.
:class:`TaskScheduler` models that structure: each task charges a
configurable CPU cost that delays every later task on the same processor.
That serialization is what makes a busy control processor slow down
reconfiguration, which E1 measures.  (The 1.2 ms resolution of the real
timer queue is not modelled: Autopilot's timers here are exact.)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Event, Simulator, as_root, cancel
from repro.sim.trace import CAT_TIMER


class Periodic:
    """Run ``fn(*args)`` every ``period`` ns until cancelled.

    ``name`` and ``owner`` identify the timer to an attached flight
    recorder; unnamed periodics stay silent.  Each tick is recorded as a
    causal *root* (the re-armed event's context is detached), so chains
    start at the firing instead of trailing back through every earlier
    tick of the same timer.
    """

    def __init__(
        self,
        sim: Simulator,
        period: int,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        owner: Optional[str] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        self.name = name
        self.owner = owner or "sim"
        self._cancelled = False
        self._handle: Optional[Event] = as_root(sim.after(period, self._tick))
        self._record("timer-arm")

    def _record(self, event: str) -> None:
        rec = self._sim.recorder
        if rec is not None and self.name is not None:
            rec.record(
                self._sim.now,
                self.owner,
                CAT_TIMER,
                event,
                advance=False,
                timer=self.name,
                period_ns=self.period,
            )

    def _tick(self) -> None:
        if self._cancelled:
            return
        self._handle = as_root(self._sim.after(self.period, self._tick))
        rec = self._sim.recorder
        if rec is not None and self.name is not None:
            # parent=None: the firing is a causal root, and advancing the
            # context makes everything the callback does chain to it
            rec.record(
                self._sim.now,
                self.owner,
                CAT_TIMER,
                "timer-fire",
                parent=None,
                timer=self.name,
            )
        self._fn(*self._args)

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            cancel(self._handle)
            self._handle = None
            self._record("timer-cancel")

    @property
    def active(self) -> bool:
        return not self._cancelled


class TaskScheduler:
    """Non-preemptive run-to-completion task scheduler for one processor,
    or any serial resource: the Ethernet medium, a bridge's forwarding
    CPU and a slow host's receive processing run on one too.

    Tasks are procedure calls; at most one runs at a time.  A task that
    arrives while another runs, or behind tasks already waiting, joins
    the tail of a FIFO run queue.  While the queue is non-empty the
    processor holds exactly one wake-up event, at ``_busy_until``; that
    wake-up is the processor's only place in the same-instant order
    (DESIGN.md, "Same-instant order").
    """

    def __init__(self, sim: Simulator, owner: Optional[str] = None) -> None:
        self.sim = sim
        #: component name flight-recorded timer events are attributed to
        self.owner = owner or "sim"
        #: simulated time at which the processor next becomes free
        self._busy_until: int = 0
        #: waiting tasks, oldest first: (fn, args, cost, flight-recorder
        #: causal context of the arrival)
        self._waiting: Deque[Tuple[Callable[..., Any], tuple, int, Optional[int]]] = deque()

    def __len__(self) -> int:
        """The tasks waiting, not counting the one running."""
        return len(self._waiting)

    def run(self, fn: Callable[..., Any], *args: Any, cost: int = 0) -> None:
        """An arrival now: ``fn`` starts at once on a free processor with
        nobody waiting, else at the tail of the run queue."""
        self._arrive(fn, args, cost)

    def run_soon(self, fn: Callable[..., Any], *args: Any, cost: int = 0) -> Event:
        """Run ``fn`` as soon as the processor is free."""
        return self.sim.call_soon(self._arrive, fn, args, cost)

    def every(
        self,
        period: int,
        fn: Callable[[], Any],
        cost: int = 0,
        name: Optional[str] = None,
    ) -> Periodic:
        """Run ``fn`` periodically, charging ``cost`` CPU per invocation."""
        return Periodic(self.sim, period, self._arrive, fn, (), cost, name=name, owner=self.owner)

    def _arrive(self, fn: Callable[..., Any], args: tuple, cost: int) -> None:
        sim = self.sim
        waiting = self._waiting
        if not waiting:
            if sim.now >= self._busy_until:
                self._start(fn, args, cost)
                return
            sim.at(self._busy_until, self._wake)
        rec = sim.recorder
        waiting.append((fn, args, cost, None if rec is None else rec.current))

    def _wake(self) -> None:
        sim = self.sim
        waiting = self._waiting
        rec = sim.recorder
        # a zero-cost task leaves the processor free: the next one chains
        while waiting and sim.now >= self._busy_until:
            fn, args, cost, ctx = waiting.popleft()
            if rec is not None:
                # the task starts in the causal context it arrived in
                rec.current = ctx
            self._start(fn, args, cost)
        if waiting:
            sim.at(self._busy_until, self._wake)

    def _start(self, fn: Callable[..., Any], args: tuple, cost: int) -> None:
        if cost > 0:
            self._busy_until = self.sim.now + cost
            # model run-to-completion: effects land when the task finishes
            self.sim.at(self._busy_until, fn, *args)
        else:
            fn(*args)
