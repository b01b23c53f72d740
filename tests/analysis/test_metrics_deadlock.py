"""Metrics helpers and the runtime deadlock detector."""

import pytest

from benchmarks.bench_aggregate_bandwidth import rate_mbps
from repro.obs.export import format_table
from repro.sim.engine import Simulator
from tests.checkers import ProgressMonitor, mbits, percentile, stddev


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([], 50) == 0.0

    def test_stddev(self):
        assert stddev([2, 2, 2]) == 0.0
        assert stddev([1]) == 0.0
        assert stddev([1, 3]) == pytest.approx(1.414, abs=0.01)

    def test_rate_mbps(self):
        # 12.5 MB over one second is 100 Mbit/s
        assert rate_mbps(12_500_000, 1_000_000_000) == pytest.approx(100.0)
        assert rate_mbps(1, 0) == 0.0

    def test_mbits(self):
        assert mbits(1_000_000) == 8.0

    def test_format_table_aligns(self):
        text = format_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("x") == lines[2].index("1")


class TestProgressMonitor:
    def test_detects_stranded_packets(self):
        sim = Simulator()
        monitor = ProgressMonitor()
        monitor.injected(1)
        sim.at(100, lambda: None)
        sim.run()
        assert monitor.check(sim)
        assert monitor.deadlocked_at == 100

    def test_quiet_when_all_delivered(self):
        sim = Simulator()
        monitor = ProgressMonitor()
        monitor.injected(1)
        sim.at(100, monitor.finished, 1)
        sim.run()
        assert not monitor.check(sim)

    def test_quiet_while_events_remain(self):
        """A run that stopped at its bound with work queued is not idle
        (the old idle hook fired only on a drained queue), and progress
        made after a check is seen by the next one."""
        sim = Simulator()
        monitor = ProgressMonitor()
        monitor.injected(1)
        sim.at(42, lambda: None)
        sim.at(900, monitor.finished, 1)
        sim.run(until=500)
        assert not monitor.check(sim)
        sim.run()
        assert not monitor.check(sim)
        monitor.injected(2)
        assert monitor.check(sim)
        assert monitor.deadlocked_at == 900
