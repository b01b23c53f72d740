"""The experiment rigs: FIFO sizing (E2), Figure 9 (E3), latency (E4)."""

import pytest

from benchmarks.rigs.fifo_sizing import (
    broadcast_fifo_requirement,
    fifo_requirement,
    measure_backlog,
    measure_broadcast_backlog,
)
from benchmarks.rigs.fig9 import build_fig9
from benchmarks.rigs.latency import hop_latency, router_throughput


class TestFifoSizing:
    def test_paper_headline_numbers(self):
        """S=256, f=0.5, L=2km => N=1024; with B=1550 => N ~ 4096 (§6.2)."""
        assert fifo_requirement(2.0) == pytest.approx(1024, rel=0.01)
        assert broadcast_fifo_requirement(1550, 2.0) == pytest.approx(4096, rel=0.05)

    def test_backlog_within_bound(self):
        for km in (0.1, 1.0, 2.0):
            result = measure_backlog(km)
            assert result.within_bound, result

    def test_worst_case_alignment_is_tight(self):
        """Sweeping the start offset across one directive period realizes
        the S-1 term: the worst case meets the bound almost exactly."""
        results = [
            measure_backlog(2.0, start_offset_ns=50_000 + off * 80)
            for off in range(0, 256, 16)
        ]
        worst = max(results, key=lambda r: r.peak_bytes)
        assert worst.within_bound
        assert worst.tightness > 0.95

    def test_smaller_fifo_overflows(self):
        """Below the computed bound the FIFO must overflow: the bound is
        necessary, not just sufficient."""
        required = fifo_requirement(2.0)
        worst = max(
            (
                measure_backlog(2.0, start_offset_ns=50_000 + off * 80)
                for off in range(0, 256, 16)
            ),
            key=lambda r: r.peak_bytes,
        )
        assert worst.peak_bytes > 0.9 * required

    def test_broadcast_backlog_within_bound(self):
        result = measure_broadcast_backlog(1550, 2.0)
        assert result.within_bound
        assert result.tightness > 0.9

    def test_requirement_scales_with_length(self):
        assert fifo_requirement(2.0) > fifo_requirement(0.1)

    def test_requirement_scales_with_stop_fraction(self):
        assert fifo_requirement(2.0, f=0.25) > fifo_requirement(2.0, f=0.5)


class TestFig9:
    def test_deadlock_without_fix(self):
        scenario = build_fig9(fifo_bytes=1024, ignore_stop_in_broadcast=False)
        result = scenario.run()
        assert result["deadlocked"]
        assert not result["unicast_delivered"]

    def test_fix_prevents_deadlock(self):
        scenario = build_fig9(fifo_bytes=4096, ignore_stop_in_broadcast=True)
        result = scenario.run()
        assert not result["deadlocked"]
        assert result["unicast_delivered"]
        assert result["broadcast_delivered"]
        assert not result["fifo_overflow"]

    def test_fix_without_big_fifo_overflows(self):
        """Ignoring stop is only safe if the FIFO holds a whole broadcast:
        with the old 1024-byte FIFO the fix trades deadlock for overflow."""
        scenario = build_fig9(fifo_bytes=1024, ignore_stop_in_broadcast=True)
        result = scenario.run()
        assert not result["deadlocked"]
        assert result["fifo_overflow"]


class TestLatency:
    def test_transit_latency_in_paper_range(self):
        """26-32 clocks of 80ns per switch (section 5.1)."""
        per_switch = (hop_latency(5) - hop_latency(1)) / 4
        assert 26 * 80 <= per_switch <= 34 * 80

    def test_latency_linear_in_hops(self):
        l1, l3, l5 = hop_latency(1), hop_latency(3), hop_latency(5)
        assert abs((l3 - l1) / 2 - (l5 - l3) / 2) < 200  # ns

    def test_router_rate_capped_near_2m(self):
        """The 480ns scheduling engine caps a switch at ~2 M packets/s."""
        result = router_throughput(duration_ns=10_000_000)
        assert result.offered_pps > 2.1e6
        assert 1.9e6 <= result.forwarded_pps <= 2.15e6

    def test_cut_through_beats_store_and_forward(self):
        """Section 3.5: limited buffering implies a switch must forward
        before holding the whole packet; cut-through keeps multi-hop
        latency near one serialization, store-and-forward pays one full
        serialization per switch."""
        cut = hop_latency(5, data_bytes=1400)
        saf = hop_latency(5, data_bytes=1400, cut_through_bytes=1 << 20)
        wire_ns = (1400 + 54) * 80
        assert saf > cut + 3 * wire_ns  # ~one extra serialization per hop
        assert cut < 2 * wire_ns + 30_000

    def test_packet_spans_several_switches_at_once(self):
        """Section 3.5: 'a single packet can be in several switches at
        once' -- end-to-end latency of a long packet over 5 switches is
        far below 5 serializations."""
        latency = hop_latency(5, data_bytes=16_000)
        wire_ns = (16_000 + 54) * 80
        assert latency < 2 * wire_ns
