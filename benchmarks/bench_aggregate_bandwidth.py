"""E5 -- Aggregate bandwidth and latency scaling (sections 1, 3.2).

Paper: with FDDI (and Ethernet) the aggregate network bandwidth is
limited to the link bandwidth; with Autonet, distinct paths carry packets
in parallel, so many host pairs communicate simultaneously at full link
bandwidth and aggregate bandwidth grows with the configuration.  A ring's
latency is proportional to the number of hosts; a reasonably configured
Autonet's latency is proportional to the log of the number of switches.

Measured here: aggregate delivered throughput vs number of concurrently
communicating host pairs for Autonet (3x4 torus), an FDDI-like 100 Mbit/s
token ring, and a 10 Mbit/s Ethernet; and packet latency vs network size
for Autonet trees vs token rings.
"""

import pytest

from benchmarks.bench_util import Rig, Row, report
from repro.host.ethernet import Ethernet
from benchmarks.rigs.token_ring import TokenRing
from repro.constants import MS, SEC
from benchmarks.rigs.latency import hop_latency
from repro.host.workload import PeriodicSender, Sink
from repro.sim.engine import Simulator
from repro.topology import torus
from repro.types import Uid


def rate_mbps(bytes_count: float, elapsed_ns: int) -> float:
    """Throughput in Mbit/s over an elapsed simulated interval."""
    if elapsed_ns <= 0:
        return 0.0
    return bytes_count * 8 / (elapsed_ns / 1_000)  # bits per microsecond == Mbit/s


#: adjacent-switch pairs in the 3x4 torus with link-disjoint direct routes
PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
DATA_BYTES = 16_000
PERIOD_NS = int(16_054 * 80 * 1.05)  # ~95% of link rate offered per pair
MEASURE_NS = 200 * MS


def autonet_aggregate(n_pairs):
    hosts = {}
    for i, (a, b) in enumerate(PAIRS[:n_pairs]):
        hosts.update({f"src{i}": [(a, 9)], f"dst{i}": [(b, 9)]})
    # telemetry off: this bench is the wall-clock guard for the data
    # plane, so it must run with observability fully disabled; the
    # settle lets addresses and gratuitous ARPs settle
    rig = Rig(Row(torus(3, 4), network={"telemetry": False}, hosts=hosts)).boot()
    net = rig.net
    sinks = [Sink(rig.localnets[f"dst{i}"]) for i in range(n_pairs)]
    for i in range(n_pairs):
        PeriodicSender(
            rig.localnets[f"src{i}"],
            net.hosts[f"dst{i}"].uid,
            data_bytes=DATA_BYTES,
            period_ns=PERIOD_NS,
        )
    net.run_for(MEASURE_NS)
    return rate_mbps(sum(s.bytes for s in sinks), MEASURE_NS)


def shared_medium_aggregate(sim, stations):
    """Stations 2i and 2i+1 a pair: each sender queues 400 frames of 1400
    bytes; the Mbit/s delivered in ``MEASURE_NS``."""
    for src, dst in zip(stations[::2], stations[1::2]):
        for _ in range(400):
            src.send(dst.uid, 1400)
    sim.run(until=MEASURE_NS)
    return rate_mbps(sum(s.received for s in stations) * 1400, MEASURE_NS)


def ring_aggregate(n_pairs):
    sim = Simulator()
    return shared_medium_aggregate(sim, TokenRing(sim, 2 * n_pairs, max_queue=100_000).stations)


def ethernet_aggregate(n_pairs):
    sim = Simulator()
    ether = Ethernet(sim, max_queue=100_000)
    return shared_medium_aggregate(sim, [ether.attach(Uid(100 + i)) for i in range(2 * n_pairs)])


@pytest.mark.benchmark(group="E5")
def test_aggregate_bandwidth(benchmark):
    counts = [1, 2, 4, 6]

    def run():
        rows = []
        for k in counts:
            rows.append(
                (k, autonet_aggregate(k), ring_aggregate(k), ethernet_aggregate(k))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E5_aggregate",
        "E5: aggregate throughput (Mbit/s) vs concurrent host pairs",
        ["pairs", "Autonet (3x4 torus)", "FDDI-like ring (cap 100)", "Ethernet (cap 10)"],
        [[k, f"{a:.0f}", f"{r:.0f}", f"{e:.1f}"] for k, a, r, e in rows],
        notes=(
            "paper: FDDI/Ethernet aggregate <= link bandwidth; Autonet aggregate\n"
            "can be many times the link bandwidth"
        ),
    )
    final = rows[-1]
    assert final[1] > 2 * 100, "Autonet aggregate should exceed 2x link bandwidth"
    assert final[2] <= 100.5
    assert final[3] <= 10.5
    one_pair = rows[0][1]
    assert final[1] > 3 * one_pair, "aggregate should scale with pairs"


@pytest.mark.benchmark(group="E5")
def test_latency_scaling(benchmark):
    """Autonet latency ~ log(switches); ring latency ~ stations."""
    sizes = [4, 16, 64]

    def ring_latency(n):
        sim = Simulator()
        ring_net = TokenRing(sim, n)
        ring_net.stations[0].send(ring_net.stations[n // 2].uid, 500)
        sim.run(until=1 * SEC)
        return ring_net.mean_latency_ns()

    def run():
        autonet = {n: hop_latency(max(1, n.bit_length() - 1)) for n in sizes}
        ring = {n: ring_latency(n) for n in sizes}
        return autonet, ring

    autonet, ring = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E5_latency_scaling",
        "E5: latency vs network size (us)",
        ["hosts/switches", "Autonet (tree depth ~ log N)", "token ring"],
        [[n, f"{autonet[n] / 1e3:.1f}", f"{ring[n] / 1e3:.1f}"] for n in sizes],
        notes="paper: ring latency ~ N; Autonet latency ~ log N",
    )
    # the ring's latency has a per-station component (token circulation +
    # repeaters) that grows linearly with N; Autonet's grows with tree
    # depth ~ log N.  Compare the growth from 4 to 64 stations/switches.
    ring_growth = ring[64] - ring[4]
    autonet_growth = autonet[64] - autonet[4]
    assert ring_growth > 3 * autonet_growth
    # a 16x larger Autonet adds only ~4 extra switch transits (~9 us)
    assert autonet_growth < 15_000
