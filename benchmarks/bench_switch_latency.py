"""E4 -- Switch transit latency and forwarding rate (sections 5.1, 6.4).

Paper: best-case latency from first bit received to first bit forwarded
is 26-32 clocks of 80 ns (2.08-2.56 us), achieved when the router queue
is empty and an output port is free; the scheduling engine processes one
request every 480 ns, so a switch forwards about 2 million packets/s.

Measured here: end-to-end latency through chains of idle switches (the
slope is the per-switch transit latency) and the saturated forwarding
rate of a single switch fed from all twelve ports.
"""

import pytest

from benchmarks.bench_util import fmt_us, report
from benchmarks.rigs.latency import hop_latency, router_throughput


@pytest.mark.benchmark(group="E4")
def test_transit_latency(benchmark):
    hops = [1, 2, 3, 5, 8]

    def run():
        return {k: hop_latency(k) for k in hops}

    latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    per_switch = (latencies[8] - latencies[1]) / 7
    report(
        "E4_latency",
        "E4: end-to-end latency vs switch count (minimal packet, idle fabric)",
        ["switches", "end-to-end (us)"],
        [[k, fmt_us(v)] for k, v in sorted(latencies.items())],
        notes=(
            f"per-switch transit latency (slope): {per_switch:.0f} ns = "
            f"{per_switch / 80:.1f} clocks (paper: 26-32 clocks, 2.08-2.56 us)"
        ),
    )
    assert 26 * 80 <= per_switch <= 34 * 80


@pytest.mark.benchmark(group="E4")
def test_forwarding_rate(benchmark):
    def run():
        return router_throughput(duration_ns=20_000_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E4_rate",
        "E4: saturated switch forwarding rate (66-byte packets on 12 ports)",
        ["quantity", "paper", "measured"],
        [
            ["offered load (pkts/s)", "-", f"{result.offered_pps / 1e6:.2f} M"],
            ["forwarded (pkts/s)", "~2 M", f"{result.forwarded_pps / 1e6:.2f} M"],
        ],
        notes="one scheduling decision per 480 ns caps the router near 2.08 M/s",
    )
    assert 1.9e6 <= result.forwarded_pps <= 2.15e6
