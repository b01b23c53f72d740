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

if __package__ in (None, ""):  # direct invocation: python benchmarks/bench_X.py
    import os as _os
    import sys as _sys

    _ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
    _sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]

import pytest

from benchmarks.bench_util import current_seed, report
from repro.analysis.metrics import rate_mbps
from repro.host.ethernet import Ethernet
from benchmarks.rigs.token_ring import TokenRing
from repro.constants import MS, SEC
from benchmarks.rigs.latency import hop_latency
from repro.host.localnet import LocalNet
from repro.host.workload import PeriodicSender, Sink
from repro.network import Network
from repro.topology import torus
from repro.types import Uid

#: adjacent-switch pairs in the 3x4 torus with link-disjoint direct routes
PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
DATA_BYTES = 16_000
PERIOD_NS = int(16_054 * 80 * 1.05)  # ~95% of link rate offered per pair
MEASURE_NS = 200 * MS


def autonet_aggregate(n_pairs):
    # telemetry off: this bench is the wall-clock guard for the data
    # plane, so it must run with observability fully disabled
    net = Network(torus(3, 4), seed=current_seed(), telemetry=False)
    localnets = {}
    for i, (a, b) in enumerate(PAIRS[:n_pairs]):
        for tag, sw in (("src", a), ("dst", b)):
            name = f"{tag}{i}"
            net.add_host(name, [(sw, 9)])
            localnets[name] = LocalNet(net.drivers[name])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)  # addresses + gratuitous ARPs settle

    sinks = []
    for i in range(n_pairs):
        sink = Sink(localnets[f"dst{i}"])
        sinks.append(sink)
        PeriodicSender(
            localnets[f"src{i}"],
            net.hosts[f"dst{i}"].uid,
            data_bytes=DATA_BYTES,
            period_ns=PERIOD_NS,
        )
    start = net.sim.now
    net.run_for(MEASURE_NS)
    total_bytes = sum(s.bytes for s in sinks)
    return rate_mbps(total_bytes, net.sim.now - start)


def ring_aggregate(n_pairs):
    from repro.sim.engine import Simulator

    sim = Simulator()
    ring_net = TokenRing(sim, 2 * n_pairs, max_queue=100_000)
    for i in range(n_pairs):
        src = ring_net.stations[2 * i]
        dst = ring_net.stations[2 * i + 1]
        for _ in range(400):
            src.send(dst.uid, 1400)
    sim.run(until=MEASURE_NS)
    delivered = sum(s.received for s in ring_net.stations) * 1400
    return rate_mbps(delivered, MEASURE_NS)


def ethernet_aggregate(n_pairs):
    from repro.sim.engine import Simulator

    sim = Simulator()
    ether = Ethernet(sim, max_queue=100_000)
    stations = [ether.attach(Uid(100 + i)) for i in range(2 * n_pairs)]
    for i in range(n_pairs):
        for _ in range(400):
            stations[2 * i].send(stations[2 * i + 1].uid, 1400)
    sim.run(until=MEASURE_NS)
    delivered = sum(s.received for s in stations) * 1400
    return rate_mbps(delivered, MEASURE_NS)


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
    from repro.sim.engine import Simulator

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

if __name__ == "__main__":
    from benchmarks.bench_util import run_cli

    run_cli(globals())
