"""Timer helpers, the Autopilot task scheduler, and trace logs."""

from repro.sim import trace
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import Periodic, TaskScheduler
from repro.sim.trace import MergedLog, TraceLog


class TestPeriodic:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        Periodic(sim, 100, lambda: ticks.append(sim.now))
        sim.run(until=550)
        assert ticks == [100, 200, 300, 400, 500]

    def test_cancel(self):
        sim = Simulator()
        ticks = []
        periodic = Periodic(sim, 100, lambda: ticks.append(sim.now))
        sim.at(250, periodic.cancel)
        sim.run(until=1000)
        assert ticks == [100, 200]
        assert not periodic.active


class TestTaskScheduler:
    def test_cost_serializes_tasks(self):
        sim = Simulator()
        sched = TaskScheduler(sim)
        done = []
        sched.run_soon(lambda: done.append(("a", sim.now)), cost=100)
        sched.run_soon(lambda: done.append(("b", sim.now)), cost=50)
        sim.run()
        # a finishes at 100; b starts then and finishes at 150
        assert done == [("a", 100), ("b", 150)]

    def test_zero_cost_runs_inline(self):
        sim = Simulator()
        sched = TaskScheduler(sim)
        done = []
        sched.run_soon(lambda: done.append(sim.now))
        sim.run()
        assert done == [0]


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(7).stream("x")
        b = RngRegistry(7).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        reg = RngRegistry(7)
        x = reg.stream("x").random()
        # drawing from another stream must not perturb "x"
        reg2 = RngRegistry(7)
        reg2.stream("y").random()
        assert reg2.stream("x").random() == x

    def test_fork_differs(self):
        reg = RngRegistry(7)
        assert reg.fork("a").stream("x").random() != reg.stream("x").random()


class TestTraceLog:
    def test_circular_capacity(self, monkeypatch):
        monkeypatch.setattr(trace, "LOG_CAPACITY", 3)
        log = TraceLog("sw0")
        for i in range(5):
            log.log(i, "event", str(i))
        assert len(log) == 3
        assert log.total_logged == 5
        assert [e.detail for e in log.entries()] == ["2", "3", "4"]

    def test_clock_offset_applied(self):
        log = TraceLog("sw0", clock_offset=500)
        log.log(100, "boot")
        assert log.entries()[0].local_time == 600

    def test_merged_log_normalizes(self):
        a = TraceLog("a", clock_offset=1000)
        b = TraceLog("b", clock_offset=-1000)
        a.log(10, "x")
        b.log(20, "y")
        merged = MergedLog()
        merged.attach(a)
        merged.attach(b)
        entries = merged.merged()
        assert [(e.component, e.local_time) for e in entries] == [("a", 10), ("b", 20)]

    def test_merge_without_offsets_scrambles_order(self):
        """The paper's warning: imprecise normalization makes the merged
        log useless -- events appear out of order."""
        a = TraceLog("a", clock_offset=10_000)
        b = TraceLog("b", clock_offset=0)
        a.log(10, "first")
        b.log(20, "second")
        merged = MergedLog()
        merged.attach(a)
        merged.attach(b)
        a.clock_offset = 0  # no normalization
        raw = merged.merged()
        assert [e.event for e in raw] == ["second", "first"]
        a.clock_offset = 10_000
        good = merged.merged()
        assert [e.event for e in good] == ["first", "second"]
