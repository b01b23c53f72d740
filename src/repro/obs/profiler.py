"""The event-loop profiler: wall-clock attribution per handler category.

:class:`EventLoopProfiler` attaches to a :class:`~repro.sim.engine.
Simulator` (``sim.profiler = profiler``) and, for every dispatched event,
accounts the handler's wall-clock time and count under its qualified
name -- ``Autopilot._process``, ``TaskScheduler._wake``,
``Transmitter._end`` and friends -- which is exactly the granularity an
optimization pass works at.

Output is a hotspots table (sorted by total wall time) plus the headline
``events_per_sec`` figure: simulation events dispatched per wall-clock
second of ``run()``.  ``python -m repro.obs run`` writes both as the
``hotspots`` result of its ``repro.bench/1`` document, so CI tracks the
number per commit and ``python -m repro.obs report`` prints the table.

Profiling is observational only: it never changes what the simulation
does, just how long the loop takes (the two ``perf_counter_ns`` calls
per event cost roughly 100 ns).  Like the flight recorder, a detached
profiler (``sim.profiler is None``, the default) costs one attribute
load and a ``None`` test per dispatched event.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, List, Optional

#: handler rows a summary's hotspots table shows
HOTSPOT_ROWS = 20


class HandlerStats:
    """Accumulated cost of one handler category."""

    __slots__ = ("category", "count", "wall_ns")

    def __init__(self, category: str) -> None:
        self.category = category
        self.count = 0
        self.wall_ns = 0

    @property
    def mean_ns(self) -> float:
        return self.wall_ns / self.count if self.count else 0.0


class EventLoopProfiler:
    """Per-handler wall-clock and event-count accounting."""

    def __init__(self) -> None:
        self._stats: Dict[str, HandlerStats] = {}
        #: callable -> HandlerStats memo so the dispatch loop resolves a
        #: handler's category once (``__qualname__`` extraction on a bound
        #: method is far more expensive than an identity dict hit)
        self._by_func: Dict[Any, HandlerStats] = {}
        #: events dispatched while attached
        self.events = 0
        #: wall time spent inside handlers
        self.handler_wall_ns = 0
        #: wall time spent inside Simulator.run (handlers + loop overhead)
        self.run_wall_ns = 0
        self._run_started: Optional[int] = None

    # -- hooks called by the simulator -------------------------------------------------

    def begin_run(self) -> None:
        self._run_started = perf_counter_ns()

    def end_run(self) -> None:
        if self._run_started is not None:
            self.run_wall_ns += perf_counter_ns() - self._run_started
            self._run_started = None

    def account_call(self, fn: Any, wall_ns: int) -> None:
        """Account one dispatched handler by its callable (the hot path).

        The category is the handler's ``__qualname__`` -- bound methods
        of the same function share one entry via ``__func__`` -- and the
        string work happens once per callable, not once per event.
        """
        key = getattr(fn, "__func__", fn)
        stats = self._by_func.get(key)
        if stats is None:
            category = getattr(fn, "__qualname__", None) or str(fn)
            stats = self._stats.get(category)
            if stats is None:
                stats = self._stats[category] = HandlerStats(category)
            self._by_func[key] = stats
        stats.count += 1
        stats.wall_ns += wall_ns
        self.events += 1
        self.handler_wall_ns += wall_ns

    # -- results -----------------------------------------------------------------------

    def events_per_sec(self) -> float:
        """Simulation events dispatched per wall-clock second of run()."""
        if self.run_wall_ns <= 0:
            return 0.0
        return self.events / (self.run_wall_ns / 1e9)

    def hotspots(self) -> List[HandlerStats]:
        """Handler categories by total wall time, hottest first."""
        return sorted(self._stats.values(), key=lambda s: (-s.wall_ns, s.category))

    def summary(self) -> Dict[str, Any]:
        """JSON-ready profile: headline figures plus the hotspots table."""
        ranked = self.hotspots()
        total = self.handler_wall_ns or 1
        # four-decimal shares by largest remainder, ties in row order; if
        # the floats' rounding still carries the column's row-order sum
        # past 1, the least-deserving unit goes back
        units = [s.wall_ns * 10000 // total for s in ranked]
        order = sorted(range(len(ranked)), key=lambda i: -(ranked[i].wall_ns * 10000 % total))
        spare = (10000 if self.handler_wall_ns else 0) - sum(units)
        for i in order[:spare]:
            units[i] += 1
        if sum(u / 10000 for u in units) > 1.0:
            units[next(i for i in reversed(order[:spare] or order) if units[i])] -= 1
        return {
            "events": self.events,
            "run_wall_ns": self.run_wall_ns,
            "handler_wall_ns": self.handler_wall_ns,
            "events_per_sec": round(self.events_per_sec(), 1),
            "hotspots": [
                {
                    "handler": s.category,
                    "events": s.count,
                    "wall_ns": s.wall_ns,
                    "mean_ns": round(s.mean_ns, 1),
                    "share": u / 10000,
                }
                for s, u in zip(ranked[:HOTSPOT_ROWS], units)
            ],
        }
