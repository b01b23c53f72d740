"""Traffic SLO under reconfiguration: blackout cost, latency, goodput.

A hotspot fluid workload (200 flows over 60 logical hosts) runs on
torus-3x4 while a ``cut_link`` reconfiguration tears through it.  The
bench reports the SLO damage the traffic observatory prices against the
reconfiguration spans: total blackout cost (undelivered offered load,
section 6.7's metric), delivery-latency quantiles, and goodput -- all in
simulated time, so every number regresses byte-for-byte under one seed.
"""

import pytest

from benchmarks.bench_util import Rig, Row, fmt_ms, measured_cut, report
from repro.constants import SEC
from repro.topology import torus
from repro.traffic.artifact import validate_traffic
from repro.traffic.workload import TrafficConfig

#: the workload: arrivals span the cut so the outage has load to damage
TRAFFIC = TrafficConfig(
    pattern="hotspot",
    flows=200,
    hosts=60,
    mean_flow_bytes=32_768,
    duration_ns=int(1.5 * SEC),
)

LOAD_BEFORE_CUT_NS = int(0.5 * SEC)
DRAIN_AFTER_CUT_NS = int(1.2 * SEC)


def _run_workload():
    net = Rig(Row(torus(3, 4), network={"traffic": TRAFFIC})).net
    measured_cut(net, cut=(0, 1), load_ns=LOAD_BEFORE_CUT_NS)
    # the driver runs the same load after the cut as before it; drain the rest
    net.run_for(DRAIN_AFTER_CUT_NS - LOAD_BEFORE_CUT_NS)
    return net


@pytest.mark.benchmark(group="traffic")
def test_traffic_slo_during_cut(benchmark):
    net = benchmark.pedantic(_run_workload, rounds=1, iterations=1)
    doc = validate_traffic(net.traffic_doc("bench"))

    latency = doc["latency"]
    closed = [w for w in doc["windows"] if w["end_ns"] is not None]
    worst = max(closed, key=lambda w: w["blackout_cost_bytes"], default=None)
    report(
        "traffic_slo",
        "Traffic SLO across one cut_link reconfiguration (torus-3x4)",
        [
            "flows",
            "completed",
            "offered (KiB)",
            "delivered (KiB)",
            "blackout cost (KiB)",
            "goodput (KiB/s)",
            "p50 (ms)",
            "p99 (ms)",
        ],
        [
            [
                doc["generated_flows"],
                doc["flows_completed"],
                f"{doc['offered_bytes'] / 1024:.0f}",
                f"{doc['delivered_bytes'] / 1024:.0f}",
                f"{doc['blackout_cost_bytes'] / 1024:.0f}",
                f"{doc['goodput_bytes_per_sec'] / 1024:.0f}",
                fmt_ms(latency["p50_ns"]),
                fmt_ms(latency["p99_ns"]),
            ]
        ],
        notes=(
            f"{len(closed)} reconfiguration window(s); worst window priced "
            f"{(worst['blackout_cost_bytes'] / 1024 if worst else 0):.0f} KiB "
            f"of undelivered offered load (cumulative cost includes the "
            f"fault-detection delay before the span opens)"
        ),
        telemetry={
            "flows_completed": doc["flows_completed"],
            "offered_bytes": round(doc["offered_bytes"]),
            "delivered_bytes": round(doc["delivered_bytes"]),
            "blackout_cost_bytes": round(doc["blackout_cost_bytes"]),
            "goodput_bytes_per_sec": round(doc["goodput_bytes_per_sec"]),
            "p50_latency_ns": round(latency["p50_ns"]),
            "p99_latency_ns": round(latency["p99_ns"]),
            "windows": len(closed),
        },
    )
    # every flow between connected endpoints finishes once the network
    # reconverges, and the cut priced real blackout cost into a window
    assert doc["flows_completed"] == doc["generated_flows"]
    assert net.traffic.slo_violations() == []
    assert any(w["blackout_cost_bytes"] > 0 for w in closed)
    assert latency["p99_ns"] is not None and latency["p99_ns"] > 0
