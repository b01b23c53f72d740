"""The control processors' same-instant order is the written one.

``TaskScheduler`` keeps a FIFO run queue per processor and one wake-up
event per processor (DESIGN.md, "Same-instant order").  Four guards:

* a **Hypothesis differential** -- random processors, arrival instants
  (many shared), costs including 0, ``run_soon``, ``every`` and direct
  ``run`` arrivals mixed, the direct ones refused when ``len`` (the tasks
  waiting) is at a bound of 1-3 as a bridge or an Ethernet bounds its
  queue, tasks that hand work to another processor when they complete, a
  periodic cancelled mid-run -- on which the real scheduler and
  ``tests/naive_tasks.py`` (lists, no wake-up events, one global rescan
  per step) must start the same tasks at the same instants in the same
  global order, complete them in the same order and refuse the same
  ones;
* **explicit small cases** for the two places the order departs from the
  re-deferring scheduler this one replaced, for a direct ``run`` arrival
  and what ``len`` counts, and for the causal context a queued task
  starts in;
* a **linearity guard** with no wall clock in it: k waiters cost O(k)
  dispatched events, where the herd cost k(k+1)/2;
* the **whole-network differential**: the six oracle scenarios of
  ``tests/net/test_wire_oracle.py`` run on the naive simulator and
  scheduler yield the same trace logs, event counts, per-port monitor
  state, host counters and FIFO counters, and end with the section 6.6
  checks green.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import quiescent_checks
from repro.sim.engine import Simulator
from repro.sim.timers import TaskScheduler
from tests.naive_tasks import NaiveSimulator, NaiveTaskScheduler
from tests.net.test_wire_oracle import SCENARIOS, observe_wire


class Harness:
    """Drives one (simulator, scheduler) pair and logs, in global order,
    every task start and every completion as (instant, processor, label)."""

    def __init__(self, sim_class, scheduler_class, start_method, n_processors=4):
        self.sim = sim_class()
        self.cpus = [scheduler_class(self.sim) for _ in range(n_processors)]
        self.periodics = []
        self.starts = []
        self.completions = []
        self.refused = []
        for cpu, processor in enumerate(self.cpus):
            self._log_starts(cpu, processor, start_method)

    def _log_starts(self, cpu, processor, start_method):
        start = getattr(processor, start_method)

        def logged(fn, args, cost):
            # a periodic's body takes no arguments: its label is the partial's
            self.starts.append((self.sim.now, cpu, (args or fn.args)[0]))
            start(fn, args, cost)

        setattr(processor, start_method, logged)

    def done(self, label, cpu, then=None):
        """A task's effects: log the completion, maybe hand work on."""
        self.completions.append((self.sim.now, cpu, label))
        if then is not None:
            to, cost, *bound = then
            if bound:
                self.now(f"{label}>", to, cost, *bound)
            else:
                self.soon(f"{label}>", to, cost)

    def soon(self, label, cpu, cost, then=None):
        self.cpus[cpu].run_soon(self.done, label, cpu, then, cost=cost)

    def now(self, label, cpu, cost, bound, then=None):
        """A direct arrival, refused while ``bound`` tasks wait."""
        processor = self.cpus[cpu]
        if len(processor) >= bound:
            self.refused.append((self.sim.now, cpu, label, len(processor)))
        else:
            processor.run(self.done, label, cpu, then, cost=cost)

    def every(self, label, cpu, period, cost):
        body = partial(self.done, label, cpu)
        self.periodics.append(self.cpus[cpu].every(period, body, cost=cost))

    def cancel(self, nth):
        if self.periodics:
            self.periodics[nth % len(self.periodics)].cancel()

    def run(self, until=None):
        self.sim.run(until=until)
        return self.starts, self.completions, self.refused


def real(**kwargs):
    return Harness(Simulator, TaskScheduler, "_start", **kwargs)


def naive(**kwargs):
    return Harness(NaiveSimulator, NaiveTaskScheduler, "start", **kwargs)


# -- the task-set differential ---------------------------------------------------------------

INSTANTS = st.integers(0, 12).map(lambda n: 10 * n)
COSTS = st.sampled_from([0, 0, 10, 10, 20, 30, 50])
CPUS = st.integers(0, 3)
BOUNDS = st.integers(1, 3)
#: the work a completing task hands on: none, a run_soon or a bounded run
THEN = st.none() | st.tuples(CPUS, COSTS) | st.tuples(CPUS, COSTS, BOUNDS)

#: one thing the driver does at an instant: (instant, Harness method, arguments)
OPS = st.one_of(
    st.tuples(INSTANTS, st.just("soon"), CPUS, COSTS, THEN),
    st.tuples(INSTANTS, st.just("now"), CPUS, COSTS, BOUNDS, THEN),
    st.tuples(INSTANTS, st.just("every"), CPUS, st.sampled_from([10, 20, 30, 50]), COSTS),
    st.tuples(INSTANTS, st.just("cancel"), st.integers(0, 3)),
)


def drive(harness, ops):
    for number, (instant, method, *args) in enumerate(ops):
        if method != "cancel":
            args = [f"{method[0]}{number}", *args]
        harness.sim.at(instant, getattr(harness, method), *args)
    return harness.run(until=400)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=25))
def test_scheduler_equals_the_written_rule(ops):
    got_starts, got_completions, got_refused = drive(real(), ops)
    want_starts, want_completions, want_refused = drive(naive(), ops)
    assert got_starts == want_starts
    assert got_completions == want_completions
    assert got_refused == want_refused


# -- the two departures from the herd, and the causal context ---------------------------------


@pytest.mark.parametrize("build", [real, naive])
def test_a_tick_landing_as_the_processor_frees_queues_behind_the_waiters(build):
    """``p`` ticks at 100, the instant ``a`` completes, and its tick event
    is older than the wake-up ``b`` armed at 50.  The herd started ``p``
    at once (its ``now >= busy_until`` test passed), ahead of ``b``."""
    h = build(n_processors=1)
    h.every("p", 0, 100, 10)
    h.soon("a", 0, 100)
    h.sim.at(50, h.soon, "b", 0, 30)
    starts, completions, _refused = h.run(until=199)
    assert starts == [(0, 0, "a"), (100, 0, "b"), (130, 0, "p")]
    assert completions == [(100, 0, "a"), (130, 0, "b"), (140, 0, "p")]


@pytest.mark.parametrize("build", [real, naive])
def test_across_processors_the_order_is_the_wake_ups_append_order(build):
    """Two processors busy until 100, two waiters each.  Each processor's
    place in instant 110 is its one wake-up, armed right behind the
    completion of the task it started at 100: a2 (zero-cost, so its
    effects are its start) runs before b1 completes.  The herd had
    re-deferred a2 behind *both* completions: a1, b1, a2, b2."""
    h = build(n_processors=2)
    for cpu, name in enumerate("ab"):
        h.soon(f"{name}0", cpu, 100)
    for cpu, name in enumerate("ab"):
        h.sim.at(50, h.soon, f"{name}1", cpu, 10)
        h.sim.at(60, h.soon, f"{name}2", cpu, 0)
    starts, completions, _refused = h.run()
    assert [label for _t, _cpu, label in completions] == ["a0", "b0", "a1", "a2", "b1", "b2"]
    assert starts[2:] == [(100, 0, "a1"), (100, 1, "b1"), (110, 0, "a2"), (110, 1, "b2")]


@pytest.mark.parametrize("build", [real, naive])
def test_a_direct_arrival_starts_at_once_ahead_of_an_earlier_run_soon(build):
    """``run`` has no ``call_soon`` hop: ``b`` finds the processor free and
    starts in its caller's event, before ``a``'s hop arrives."""
    h = build(n_processors=1)
    h.sim.at(0, h.soon, "a", 0, 10)
    h.sim.at(0, h.now, "b", 0, 10, 1)
    starts, completions, refused = h.run()
    assert starts == [(0, 0, "b"), (10, 0, "a")]
    assert completions == [(10, 0, "b"), (20, 0, "a")] and refused == []


@pytest.mark.parametrize("build", [real, naive])
def test_len_counts_the_waiting_until_the_wake_up_starts_one(build):
    """``len`` leaves out the running task.  ``a`` completes at 100 and
    ``b`` starts at the wake-up ``b`` armed at 10, so an arrival dispatched
    between the two (``c``, armed at 0) still sees ``b`` waiting."""
    h = build(n_processors=1)
    h.now("a", 0, 100, 1)
    h.sim.at(100, h.now, "c", 0, 10, 1)
    h.sim.at(10, h.now, "b", 0, 10, 1)
    h.sim.at(20, h.now, "d", 0, 10, 1)
    starts, completions, refused = h.run()
    assert starts == [(0, 0, "a"), (100, 0, "b")]
    assert refused == [(20, 0, "d", 1), (100, 0, "c", 1)]


class Context:
    """The one attribute of a flight recorder the event loop touches."""

    current = None


@pytest.mark.parametrize("build", [real, naive])
def test_a_queued_task_starts_in_the_causal_context_it_arrived_in(build):
    h = build(n_processors=1)
    rec = h.sim.recorder = Context()
    seen = {}

    def arrive(label, cost):
        rec.current = f"cause of {label}"
        h.cpus[0].run_soon(effect, label, cost=cost)

    def effect(label):
        seen[label] = rec.current

    h.sim.at(0, arrive, "a", 100)
    h.sim.at(10, arrive, "b", 20)
    h.sim.at(20, arrive, "c", 0)
    h.run()
    assert seen == {label: f"cause of {label}" for label in "abc"}


# -- the cost guard ------------------------------------------------------------------------


def test_k_waiters_cost_a_linear_number_of_events():
    k = 50
    h = real(n_processors=1)
    h.soon("blocker", 0, 100)

    def burst():
        for n in range(k):
            h.soon(f"w{n}", 0, 10)

    h.sim.at(10, burst)
    starts, completions, _refused = h.run()
    assert [label for _t, _cpu, label in completions[1:]] == [f"w{n}" for n in range(k)]
    assert starts[-1] == (100 + 10 * (k - 1), 0, f"w{k - 1}")
    # per waiter: run_soon's hop, one wake-up, one completion.  The herd
    # woke every waiter at every completion: k(k+1)/2 = 1 275 events more
    assert h.sim.events_dispatched <= 3 * k + 5


# -- whole networks --------------------------------------------------------------------------


@pytest.mark.parametrize("name", SCENARIOS)
def test_network_equals_the_one_run_by_the_written_rule(name, monkeypatch):
    net, sinks = SCENARIOS[name]()
    report = quiescent_checks(net)
    assert report.violations == [] and report.checks_run
    real_events, real_state = observe_wire(lambda: (net, sinks))
    monkeypatch.setattr("repro.network.Simulator", NaiveSimulator)
    monkeypatch.setattr("repro.core.autopilot.TaskScheduler", NaiveTaskScheduler)
    naive_events, naive_state = observe_wire(SCENARIOS[name])
    # piecewise, so that a failure names what diverged
    for got, want in zip(real_state, naive_state):
        assert got == want
    assert real_events == naive_events
