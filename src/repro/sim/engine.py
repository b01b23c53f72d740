"""Event loop for the Autonet simulator.

Time is an integer number of nanoseconds.  Events scheduled for the same
instant run in scheduling order, which keeps runs deterministic for a
fixed seed.

An event is three slots, ``[fn, args, ctx]`` (:data:`Event`): the
callable, its argument tuple, and the flight-recorder causal context
captured when it was scheduled.  ``at``/``after``/``call_soon`` return
the event itself; outside this package the only operation on one is
:func:`cancel`, which empties ``fn`` and ``args``.  Dispatch empties
``fn`` too, so cancelling an event that already ran is harmless.

The scheduler is a *bucketed calendar queue*: one FIFO bucket per distinct
timestamp, plus a binary heap of the bucket timestamps themselves.  Pushing
an event is a dict lookup and a list append (plus one integer heap push the
first time a timestamp is seen).  :meth:`Simulator.run` drains a bucket
inline: it compares the heap's least timestamp with ``until`` before
popping it, sets ``now``, reads the recorder and profiler and adds to
``events_dispatched`` once per bucket, and then walks the bucket in
append order -- a handler that schedules at ``now`` appends behind the
walk.  Append order *is* the tie-break, so the dispatch order is exactly
the ``(time, seq)`` order of a single heap keyed by a global sequence
number; ``tests/sim/test_engine_order.py`` holds it to that reference
under random arm/cancel/raise interleavings.  The heap only ever compares
machine integers and holds one entry per *distinct* timestamp: with the
80 ns byte slot and every Autopilot on one 10 ms sampler / 200 ms prober
grid, simultaneous events are the common case.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

#: ``[fn, args, ctx]``: ``fn`` is None once cancelled or dispatched; ``ctx``
#: is the eid of the event being handled when this one was scheduled (None
#: when no recorder is attached, or the event is a causal root)
Event = List[Any]


def cancel(event: Event) -> None:
    """Prevent ``event`` from running.  Safe on an event that already ran
    or was already cancelled."""
    event[0] = None
    event[1] = ()


def as_root(event: Event) -> Event:
    """Detach ``event`` from its scheduler's causal context: it runs as a
    flight-recorder causal root."""
    event[2] = None
    return event


class Simulator:
    """Deterministic integer-nanosecond discrete-event simulator."""

    def __init__(self) -> None:
        self.now: int = 0
        #: bucketed calendar queue: timestamp -> FIFO list of events.  The
        #: bucket being drained stays here, so same-instant scheduling
        #: lands behind the drain.
        self._buckets: Dict[int, List[Event]] = {}
        #: min-heap of bucket timestamps (machine ints, C comparisons)
        self._times: List[int] = []
        self._running = False
        #: number of events dispatched so far (useful for budget guards)
        self.events_dispatched: int = 0
        #: the last packet and control-message ids minted: plain ints on
        #: the simulator, so two simulators in one process mint the same
        #: sequences and a copied simulator mints on where its original would
        self.packet_ids: int = 0
        self.msg_ids: int = 0
        #: the first Network's fault count (repro.network.Faults), kept
        #: only for the frozen e2e harness's one read; ROADMAP item 1(d)
        #: deletes the slot.
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

    # -- ids ---------------------------------------------------------------------

    def new_packet_id(self) -> int:
        """The next :class:`~repro.net.packet.Packet` id, from 1."""
        self.packet_ids += 1
        return self.packet_ids

    def new_msg_id(self) -> int:
        """The next control-message id, from 1 (the reliable-delivery layer
        acks and retransmits by it)."""
        self.msg_ids += 1
        return self.msg_ids

    # -- scheduling ------------------------------------------------------------

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        time = int(time)
        rec = self.recorder
        # causality flows through the event loop: the scheduled event
        # inherits the context of whatever scheduled it
        event: Event = [fn, args, None if rec is None else rec.current]
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # inlined at(): this is the hottest scheduling entry point
        time = self.now + int(delay)
        rec = self.recorder
        event: Event = [fn, args, None if rec is None else rec.current]
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant, after pending work."""
        return self.after(0, fn, *args)

    # -- execution ----------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or the next one is past
        ``until`` (then the clock stops at ``until``).

        Returns the simulation time when the run ended.  A handler's
        exception propagates; the next ``run()`` resumes its bucket after
        the event that raised.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until the past: {until} < {self.now}")
        self._running = True
        if self.profiler is not None:
            self.profiler.begin_run()
        buckets = self._buckets
        times = self._times
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    break
                heappop(times)
                self.now = time
                bucket = buckets[time]
                # an observer attached by a handler joins at the next instant
                recorder = self.recorder
                profiler = self.profiler
                dispatched = 0
                try:
                    # the list iterator sees events appended while it walks
                    for event in bucket:
                        fn, args, ctx = event
                        if fn is None:
                            continue
                        event[0] = None
                        if recorder is not None:
                            # restore the causal context captured at schedule time
                            recorder.current = ctx
                        if profiler is None:
                            fn(*args)
                        else:
                            started = perf_counter_ns()
                            fn(*args)
                            profiler.account_call(fn, perf_counter_ns() - started)
                        dispatched += 1
                except BaseException:
                    # write the bucket back: a rescan skips what already ran
                    heappush(times, time)
                    raise
                finally:
                    self.events_dispatched += dispatched
                # exhausted: no same-time append can come later -- the clock
                # only moves forward, and at() refuses past timestamps
                del buckets[time]
            if until is not None:
                self.now = until
        finally:
            self._running = False
            if self.profiler is not None:
                self.profiler.end_run()
        return self.now

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` (>= 0) nanoseconds of simulated time."""
        return self.run(until=self.now + duration)

    # -- introspection --------------------------------------------------------------

    def pending_events(self) -> int:
        """Number of live (non-cancelled, not yet dispatched) events."""
        return sum(
            1
            for bucket in self._buckets.values()
            for event in bucket
            if event[0] is not None
        )
