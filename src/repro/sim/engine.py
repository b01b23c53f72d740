"""Event loop for the Autonet simulator.

Time is an integer number of nanoseconds.  Events scheduled for the same
instant run in scheduling order (a monotonically increasing sequence number
breaks ties), which keeps runs deterministic for a fixed seed.

The scheduler is a *bucketed calendar queue*: one FIFO bucket per distinct
timestamp, plus a binary heap of the bucket timestamps themselves.  Pushing
an event is a dict lookup and a list append (plus one integer heap push the
first time a timestamp is seen); popping is an index increment into the
current bucket.  Because a bucket is drained in append order and the
sequence number grows monotonically, the dispatch order is *exactly* the
``(time, seq)`` order of the previous single-``heapq`` implementation --
``tests/sim/test_engine_order.py`` pins the equivalence property under
random arm/cancel/reschedule interleavings.  The win is that the heap
only ever compares machine integers (no ``EventHandle.__lt__`` Python
callbacks) and only holds one entry per *distinct* timestamp: with the
80 ns byte slot and every Autopilot on one 10 ms sampler / 200 ms prober
grid, simultaneous events are the common case.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "ctx")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        #: flight-recorder causal context captured at schedule time (the
        #: eid of the event being handled when this one was scheduled);
        #: None when no recorder is attached or the event is a causal root
        self.ctx: Optional[int] = None

    def cancel(self) -> None:
        """Prevent the event from running.  Safe to call more than once."""
        self.cancelled = True
        self.fn = None
        self.args = ()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Deterministic integer-nanosecond discrete-event simulator."""

    def __init__(self) -> None:
        self.now: int = 0
        #: bucketed calendar queue: timestamp -> FIFO list of handles
        self._buckets: Dict[int, List[EventHandle]] = {}
        #: min-heap of bucket timestamps (machine ints, C comparisons)
        self._times: List[int] = []
        #: bucket currently being drained (still present in _buckets so
        #: same-instant reschedules land behind the drain index)
        self._bucket: Optional[List[EventHandle]] = None
        self._bucket_time: int = 0
        self._bucket_pos: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: number of events dispatched so far (useful for budget guards)
        self.events_dispatched: int = 0
        #: simulation-wide metrics registry (repro.obs.registry.
        #: MetricsRegistry), attached by Network.  The event loop itself
        #: stays free of per-event instrument calls: the registry reads
        #: the counters the loop keeps anyway through snapshot-time
        #: collectors.
        self.metrics = None
        #: optional flight recorder (repro.obs.flight.FlightRecorder).
        #: None (the default) is the fast path: every hook site in the
        #: simulation is then one attribute load plus a None test, and no
        #: event objects are allocated.  Attach before building
        #: components so boot-time events are captured.
        self.recorder = None
        #: optional event-loop profiler (repro.obs.profiler.
        #: EventLoopProfiler); None disables the per-event perf_counter
        #: calls entirely.
        self.profiler = None
        #: optional in-band path telemetry (repro.obs.inband.
        #: InbandTelemetry).  None (the default) is the fast path: every
        #: stamp site in switch/linkunit/fifo/host is one attribute load
        #: plus a None test, no hop records are allocated, and runs stay
        #: byte-identical (RS305 enforces the pattern at call sites).
        self.inband = None
        #: optional control-plane cost accounting (repro.obs.control.
        #: ControlAccounting).  None (the default) is the fast path:
        #: every send/retransmit/SRP hook in autopilot/reconfig/srp is
        #: one attribute load plus a None test and no counter cells are
        #: allocated (RS306 enforces the pattern at call sites).
        self.control = None

    # -- scheduling ------------------------------------------------------------

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq += 1
        time = int(time)
        handle = EventHandle(time, self._seq, fn, args)
        if self.recorder is not None:
            # causality flows through the event loop: the scheduled event
            # inherits the context of whatever scheduled it
            handle.ctx = self.recorder.current
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [handle]
            heappush(self._times, time)
        else:
            bucket.append(handle)
        return handle

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # inlined at(): this is the hottest scheduling entry point
        time = self.now + int(delay)
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args)
        if self.recorder is not None:
            handle.ctx = self.recorder.current
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [handle]
            heappush(self._times, time)
        else:
            bucket.append(handle)
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant, after pending work."""
        time = self.now
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args)
        if self.recorder is not None:
            handle.ctx = self.recorder.current
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [handle]
            heappush(self._times, time)
        else:
            bucket.append(handle)
        return handle

    # -- execution ----------------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or stopped.

        Returns the simulation time when the run ended.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        dispatched = 0
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_run()
        pop = self._pop_runnable
        try:
            while not self._stopped:
                handle = pop()
                if handle is None:
                    if until is not None:
                        self.now = until
                    break
                time = handle.time
                if until is not None and time > until:
                    # un-consume the handle and release the bucket back to
                    # the heap: the clock rewinds to ``until``, so a later
                    # at() may legally arm an *earlier* timestamp, and the
                    # next run() must take the true minimum, not resume
                    # this bucket first.  Re-entering from the heap rescans
                    # from index 0, which is safe: dispatched handles read
                    # as cancelled and are skipped.
                    self._bucket_pos -= 1
                    heappush(self._times, self._bucket_time)
                    self._bucket = None
                    self.now = until
                    break
                self.now = time
                fn = handle.fn
                args = handle.args
                # inline cancel(): dispatched handles read as consumed and
                # drop their callable/argument references immediately
                handle.cancelled = True
                handle.fn = None
                handle.args = ()
                recorder = self.recorder
                if recorder is not None:
                    # restore the causal context captured at schedule time
                    recorder.current = handle.ctx
                profiler = self.profiler
                if profiler is not None:
                    started = perf_counter_ns()
                    fn(*args)  # type: ignore[misc]
                    profiler.account_call(fn, perf_counter_ns() - started)
                else:
                    fn(*args)  # type: ignore[misc]
                self.events_dispatched += 1
                dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    break
        finally:
            self._running = False
            if self.profiler is not None:
                self.profiler.end_run()
        return self.now

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` nanoseconds of simulated time."""
        return self.run(until=self.now + duration)

    def _pop_runnable(self) -> Optional[EventHandle]:
        """Consume and return the next live handle in (time, seq) order."""
        bucket = self._bucket
        buckets = self._buckets
        while True:
            if bucket is not None:
                pos = self._bucket_pos
                n = len(bucket)
                while pos < n:
                    handle = bucket[pos]
                    pos += 1
                    if not handle.cancelled:
                        self._bucket_pos = pos
                        return handle
                    # a handler may append to this bucket while it drains
                    n = len(bucket)
                # exhausted: drop the bucket and move on.  No same-time
                # append can happen later -- the clock only moves forward,
                # and at() refuses past timestamps.
                del buckets[self._bucket_time]
                self._bucket = bucket = None
            times = self._times
            if not times:
                return None
            time = heappop(times)
            # a bucket can be re-created (and its timestamp re-pushed)
            # after draining while now still equals it; skip stale entries
            found = buckets.get(time)
            if found is not None:
                self._bucket = bucket = found
                self._bucket_time = time
                self._bucket_pos = 0

    # -- introspection --------------------------------------------------------------

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return sum(
            1
            for bucket in self._buckets.values()
            for handle in bucket
            if not handle.cancelled
        )
