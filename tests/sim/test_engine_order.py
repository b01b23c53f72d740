"""Dispatch-order equivalence for the bucketed calendar queue.

The engine docstring makes a strong claim: the calendar queue dispatches
in *exactly* the ``(time, seq)`` order of a single heap keyed by a global
sequence number.  These tests pin that claim three ways:

* a Hypothesis property drives both the real :class:`Simulator` and a
  reference model (a plain list sorted by ``(time, seq)``) through random
  arm / cancel / reschedule interleavings -- including cancelling events
  that already fired and handlers that raise mid-bucket before ``run()``
  resumes -- and requires identical firing sequences, each event once;
* deterministic regressions cover the tie-break rule (same-instant FIFO),
  zero-delay self-scheduling from inside a handler, a bucket beyond
  ``until`` that must survive untouched into the next ``run()`` call, and
  a bucket a raising handler leaves part-drained.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.sim.engine import Event, Simulator, cancel


class ReferenceModel:
    """The old scheduler's semantics, kept deliberately naive.

    Events live in one list; dispatch repeatedly scans for the live entry
    with the smallest ``(time, seq)``.  O(n^2) and obviously correct.
    """

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        #: [time, seq, label, cancelled]
        self._events: List[list] = []

    def at(self, time: int, label: int) -> list:
        assert time >= self.now
        self._seq += 1
        entry = [time, self._seq, label, False]
        self._events.append(entry)
        return entry

    def cancel(self, entry: list) -> None:
        entry[3] = True

    def run(self, until: Optional[int] = None) -> List[int]:
        fired = []
        while True:
            live = [e for e in self._events if not e[3]]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            self.now = entry[0]
            entry[3] = True
            fired.append(entry[2])
        if until is not None:
            self.now = until
        return fired


#: one scripted operation: ("at", delay) | ("raise", delay) |
#: ("cancel", index) | ("cancel_fired", index) | ("run", span)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("raise"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("cancel_fired"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=60)),
    ),
    min_size=1,
    max_size=60,
)


class Boom(Exception):
    """What a raising handler throws."""


def _fire_and_raise(fired: List[int], label: int) -> None:
    fired.append(label)
    raise Boom(label)


def _run_through_raises(sim: Simulator, until: Optional[int] = None) -> None:
    """``run(until)``, resumed after every handler that raises.  A script
    arms at most 60 events, so more raises mean one ran twice."""
    for _ in range(61):
        try:
            sim.run(until=until)
            return
        except Boom:
            pass
    raise AssertionError("a raising event ran more than once")


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_calendar_queue_matches_reference_heap(ops) -> None:
    """Random arm/cancel/raise/run interleavings fire in identical order,
    each event exactly once."""
    sim = Simulator()
    ref = ReferenceModel()
    fired: List[int] = []
    events: List[Event] = []  # events[label - 1]
    ref_entries: List[list] = []
    done: List[int] = []  # the labels that fired
    label = 0

    for op, arg in ops:
        if op in ("at", "raise"):
            label += 1
            fn = fired.append if op == "at" else _fire_and_raise
            args = (label,) if op == "at" else (fired, label)
            events.append(sim.at(sim.now + arg, fn, *args))
            ref_entries.append(ref.at(ref.now + arg, label))
        elif op == "cancel" and events:
            index = arg % len(events)
            cancel(events[index])
            ref.cancel(ref_entries[index])
        elif op == "cancel_fired" and done:
            # the reference entry is consumed already: a no-op on both sides
            cancel(events[done[arg % len(done)] - 1])
        elif op == "run":
            until = sim.now + arg
            _run_through_raises(sim, until)
            expected = ref.run(until=until)
            assert fired == expected, (
                f"divergence running until {until}: sim fired {fired}, "
                f"reference fired {expected}"
            )
            assert sim.now == ref.now
            done += fired
            fired.clear()
            expected.clear()

    # drain everything that is still pending
    _run_through_raises(sim)
    assert fired == ref.run()
    assert sim.pending_events() == 0


@settings(max_examples=100, deadline=None)
@given(
    ops=_OPS,
    reschedules=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=20,
    ),
)
def test_reschedule_is_cancel_plus_fresh_arm(ops, reschedules) -> None:
    """Cancel-then-rearm (the fifo boundary pattern) stays equivalent."""
    sim = Simulator()
    ref = ReferenceModel()
    fired: List[int] = []
    handles: List[Event] = []
    ref_entries: List[list] = []
    label = 0

    for op, arg in ops:
        if op == "at":
            label += 1
            handles.append(sim.at(sim.now + arg, fired.append, label))
            ref_entries.append(ref.at(ref.now + arg, label))

    for index, delay in reschedules:
        if not handles:
            break
        index %= len(handles)
        label += 1
        cancel(handles[index])
        ref.cancel(ref_entries[index])
        handles[index] = sim.at(sim.now + delay, fired.append, label)
        ref_entries[index] = ref.at(ref.now + delay, label)

    sim.run()
    assert fired == ref.run()


def test_same_instant_fifo_tie_order() -> None:
    """Events at one timestamp dispatch in scheduling order, not reversed
    or heap-shuffled -- the determinism contract's tie-break rule."""
    sim = Simulator()
    fired: List[int] = []
    # interleave two timestamps so bucket append order != global order
    for label in range(8):
        sim.at(100 if label % 2 else 200, fired.append, label)
    sim.run()
    assert fired == [1, 3, 5, 7, 0, 2, 4, 6]


def test_zero_delay_from_handler_runs_same_instant() -> None:
    """after(0, ...) from inside a handler lands behind pending work at
    the current instant (the bucket keeps draining in append order)."""
    sim = Simulator()
    fired: List[str] = []

    def first() -> None:
        fired.append("first")
        sim.after(0, lambda: fired.append("nested"))
        sim.call_soon(lambda: fired.append("soon"))

    sim.at(10, first)
    sim.at(10, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "nested", "soon"]
    assert sim.now == 10


def test_cancel_same_instant_event_from_handler() -> None:
    """A handler can cancel a later event in its own bucket."""
    sim = Simulator()
    fired: List[str] = []
    victim = [None]

    def first() -> None:
        fired.append("first")
        cancel(victim[0])

    sim.at(5, first)
    victim[0] = sim.at(5, lambda: fired.append("victim"))
    sim.at(5, lambda: fired.append("third"))
    sim.run()
    assert fired == ["first", "third"]


def test_until_pushback_resumes_exactly() -> None:
    """run(until=t) must not touch a bucket beyond t: a follow-up run()
    fires its events exactly once, in order."""
    sim = Simulator()
    fired: List[int] = []
    sim.at(10, fired.append, 1)
    sim.at(20, fired.append, 2)
    sim.at(20, fired.append, 3)
    sim.run(until=15)
    assert fired == [1]
    assert sim.now == 15
    sim.run(until=20)
    assert fired == [1, 2, 3]
    sim.run()
    assert fired == [1, 2, 3]


def test_bucket_recreated_at_current_instant() -> None:
    """Scheduling at the current time after its bucket drained re-creates
    the bucket; the stale heap entry must not lose or duplicate events."""
    sim = Simulator()
    fired: List[str] = []

    def late() -> None:
        fired.append("late")
        # the t=10 bucket has drained and been deleted; this re-creates it
        sim.call_soon(lambda: fired.append("recreated"))
        sim.call_soon(lambda: fired.append("recreated-2"))

    sim.at(10, late)
    sim.run()
    assert fired == ["late", "recreated", "recreated-2"]


def test_past_scheduling_rejected() -> None:
    sim = Simulator()
    sim.at(50, lambda: None)
    sim.run()
    assert sim.now == 50
    try:
        sim.at(49, lambda: None)
    except ValueError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("scheduling in the past must raise")


def test_cancelled_events_do_not_advance_clock() -> None:
    """A bucket of only-cancelled events is skipped without dispatching,
    and the clock still lands on ``until``."""
    sim = Simulator()
    fired: List[int] = []
    doomed = [sim.at(30, fired.append, n) for n in range(4)]
    sim.at(40, fired.append, 99)
    for event in doomed:
        cancel(event)
    sim.run(until=100)
    assert fired == [99]
    assert sim.now == 100


def test_cancelling_a_dispatched_event_is_a_no_op() -> None:
    """cancel() on an event that already ran changes nothing, and
    pending_events() counts live entries only -- not dispatched ones, not
    cancelled ones, not those of a bucket still draining."""
    sim = Simulator()
    fired: List[str] = []
    counts: List[int] = []
    first = sim.at(5, fired.append, "first")
    sim.at(5, lambda: counts.append(sim.pending_events()))
    doomed = sim.at(5, fired.append, "doomed")
    sim.at(9, fired.append, "late")
    cancel(doomed)
    assert sim.pending_events() == 3
    sim.run(until=5)
    assert fired == ["first"]
    assert counts == [1]  # only "late": "first" ran, "doomed" is cancelled
    cancel(first)
    assert sim.pending_events() == 1
    sim.run()
    assert fired == ["first", "late"]
    assert sim.pending_events() == 0


def test_a_raising_handler_leaves_its_bucket_resumable() -> None:
    """An exception propagates out of run(); the next run() goes on after
    the event that raised, in order, and runs what it scheduled first."""
    sim = Simulator()
    fired: List[str] = []

    def boom() -> None:
        fired.append("boom")
        sim.call_soon(fired.append, "scheduled-by-boom")
        raise Boom()

    sim.at(10, fired.append, "before")
    sim.at(10, boom)
    sim.at(10, fired.append, "after")
    sim.at(20, fired.append, "later")
    with pytest.raises(Boom):
        sim.run(until=15)
    assert fired == ["before", "boom"]
    assert sim.now == 10
    assert sim.pending_events() == 3
    sim.run(until=15)
    assert fired == ["before", "boom", "after", "scheduled-by-boom"]
    assert sim.now == 15
    sim.run()
    assert fired[-1] == "later"
    assert len(fired) == 5


_FUZZ_TIMES = st.lists(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=40
)


@settings(max_examples=100, deadline=None)
@given(times=_FUZZ_TIMES)
def test_dense_tie_storm_fires_in_seq_order(times: List[int]) -> None:
    """Many events over a tiny time range: global (time, seq) order holds
    even when nearly everything collides."""
    sim = Simulator()
    fired: List[Tuple[int, int]] = []
    for seq, time in enumerate(times):
        sim.at(time, lambda t=time, s=seq: fired.append((t, s)))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
