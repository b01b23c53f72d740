"""The written same-instant order, by the dumbest mechanism.

DESIGN.md ("Same-instant order") states the rule
:class:`repro.sim.timers.TaskScheduler` implements with a deque and one
wake-up event per processor.  This module implements the same rule with
neither: a processor is a plain list of waiting tasks, there are **no
wake-up events at all**, and one global step
(:meth:`NaiveSimulator.run`) rescans everything to find the next thing to
happen -- the least ``(instant, stamp)`` among the agenda of scheduled
calls and the *turns* of the processors that have somebody waiting.

The rule, restated for this mechanism:

* every request -- a call scheduled with ``at``/``after``/``call_soon``,
  or a processor asking for its turn -- draws the next *stamp* from one
  global counter; things due at one instant happen in stamp order;
* a task arrives when its ``run_soon`` hop is dispatched, or at once by
  ``run``; one that arrives on a free processor with nobody waiting starts
  at once; any other arrival joins the tail of the processor's list, and
  if the list was empty the processor asks for its turn (at
  ``busy_until``); ``len`` of a processor is its list's length (the
  running task is not in it);
* a turn starts tasks from the head of the list while the processor is
  free (a zero-cost task leaves it free), then, if anybody is still
  waiting, asks for the next turn;
* a started task with ``cost > 0`` holds the processor until
  ``now + cost`` and schedules its own effects for that instant; a
  zero-cost task's effects happen at its start.

``tests/sim/test_task_order.py`` holds the real scheduler to this one,
task by task and network by network.  Nothing under ``src/`` may import
this module.
"""

from bisect import insort

from repro.sim.engine import Simulator, cancel
from repro.sim.timers import Periodic


class NaiveSimulator(Simulator):
    """A sorted agenda, a list of processors and a global step."""

    def __init__(self):
        super().__init__()
        #: scheduled calls as (instant, stamp, event), kept sorted; the
        #: event is the engine's ``[fn, args, ctx]``, so ``cancel`` and
        #: ``Periodic`` work on it unchanged
        self.agenda = []
        #: every NaiveTaskScheduler built on this simulator
        self.processors = []
        self.stamps = 0

    def stamp(self):
        self.stamps += 1
        return self.stamps

    def at(self, time, fn, *args):
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        rec = self.recorder
        event = [fn, args, None if rec is None else rec.current]
        # stamps are unique, so insort never compares two events
        insort(self.agenda, (int(time), self.stamp(), event))
        return event

    def after(self, delay, fn, *args):
        return self.at(self.now + int(delay), fn, *args)

    def call_soon(self, fn, *args):
        return self.at(self.now, fn, *args)

    def pending_events(self):
        return sum(event[0] is not None for _time, _stamp, event in self.agenda)

    def run(self, until=None):
        while True:
            while self.agenda and self.agenda[0][2][0] is None:
                self.agenda.pop(0)
            due = self.agenda[:1]
            due += [(p.busy_until, p.turn_stamp, p) for p in self.processors if p.waiting]
            # stamps are unique, so no comparison ever reaches `thing`
            time, _stamp, thing = min(due, default=(None, None, None))
            if thing is None or (until is not None and time > until):
                if until is not None:
                    self.now = until
                break
            self.now = time
            if isinstance(thing, NaiveTaskScheduler):
                thing.turn()
            else:
                self.agenda.pop(0)
                fn, args, ctx = thing
                if self.recorder is not None:
                    self.recorder.current = ctx
                cancel(thing)
                fn(*args)
            self.events_dispatched += 1
        return self.now


class NaiveTaskScheduler:
    """One processor: a list, a busy-until instant and a turn stamp."""

    def __init__(self, sim, owner=None):
        self.sim = sim
        self.owner = owner or "sim"
        self.busy_until = 0
        #: (fn, args, cost, causal context of the arrival), oldest first
        self.waiting = []
        #: when the processor asked for the turn it is waiting for
        self.turn_stamp = None
        sim.processors.append(self)

    def __len__(self):
        return len(self.waiting)

    def run(self, fn, *args, cost=0):
        self.arrive(fn, args, cost)

    def run_soon(self, fn, *args, cost=0):
        return self.sim.call_soon(self.arrive, fn, args, cost)

    def every(self, period, fn, cost=0, name=None):
        return Periodic(self.sim, period, self.arrive, fn, (), cost, name=name, owner=self.owner)

    def arrive(self, fn, args, cost):
        if not self.waiting and self.sim.now >= self.busy_until:
            self.start(fn, args, cost)
            return
        if not self.waiting:
            self.turn_stamp = self.sim.stamp()
        rec = self.sim.recorder
        self.waiting.append((fn, args, cost, None if rec is None else rec.current))

    def turn(self):
        while self.waiting and self.sim.now >= self.busy_until:
            fn, args, cost, ctx = self.waiting.pop(0)
            if self.sim.recorder is not None:
                self.sim.recorder.current = ctx
            self.start(fn, args, cost)
        self.turn_stamp = self.sim.stamp() if self.waiting else None

    def start(self, fn, args, cost):
        if cost > 0:
            self.busy_until = self.sim.now + cost
            self.sim.at(self.busy_until, fn, *args)
        else:
            fn(*args)
