"""Event-engine throughput: the measured scenario's event count and speed.

Runs the measured scenario (converge, cut link 0-1, reconverge) on the
two gated topologies with the event-loop profiler attached.  The row
metric is the exact number of events dispatched -- a deterministic cost
proxy the CI ``bench-record`` job holds to the committed
``results/engine_speed.txt`` byte for byte.  Wall time and dispatch
throughput are the host's, so they ride in ``telemetry["host"]``, in the
uncommitted ``BENCH_engine_speed.json``: useful for before/after ratios
on one box, and measured repeatably by ``bench_e2e`` (``benchmarks/e2e``),
not here.
"""

from benchmarks import bench_util

from repro.topology.generators import resolve_topology

#: topologies the perf gate watches: the paper's own LAN and the dense
#: torus the rest of CI profiles
TOPOLOGIES = ("torus-3x4", "src-lan-30")


def _measure(topo: str):
    """Converge, cut 0-1, reconverge under the event-loop profiler."""
    net = bench_util.Rig(bench_util.Row(resolve_topology(topo), network={"profile": True})).net
    bench_util.measured_cut(net, cut=(0, 1), load_ns=0)
    profiler = net.profiler
    return {
        "events": profiler.events,
        "wall_ms": profiler.run_wall_ns / 1e6,
        "events_per_sec": profiler.events_per_sec(),
    }


def test_engine_speed(benchmark):
    rows = []
    host = {}
    for topo in TOPOLOGIES:
        m = benchmark(_measure, topo) if topo == TOPOLOGIES[0] else _measure(topo)
        rows.append([topo, m["events"]])
        host[f"{topo}_wall_ms"] = round(m["wall_ms"], 1)
        host[f"{topo}_events_per_sec"] = round(m["events_per_sec"], 1)
        # dispatch throughput must be a real measurement, not a div-zero
        assert m["events"] > 0 and m["events_per_sec"] > 0
    bench_util.report(
        "engine_speed",
        "Event-engine dispatch throughput (calendar-queue scheduler)",
        headers=["topology", "events"],
        rows=rows,
        notes=(
            "converge + cut 0-1 + reconverge under the event-loop profiler;\n"
            "events is exact and gated; wall_ms / events_per_sec are this host's\n"
            "(telemetry.host, ungated)"
        ),
        telemetry={"host": host},
    )
