"""In-band telemetry overhead and path accounting (ISSUE 6, section 6.7).

The in-band layer stamps every client packet with a per-hop record
(switch, ports, FIFO depth, timestamp).  This bench runs the identical
torus-3x4 workload -- two hosts exchanging periodic datagrams across a
``cut_link`` reconfiguration -- with the layer off and on, and reports:

* that stamping is observational: the run delivers the same datagrams
  either way (what the stamping costs in wall clock is ``bench_e2e``'s
  ``observed_torus`` against ``dataplane_torus``, measured repeatably
  there and not at all here);
* the deterministic accounting the enabled run produces: hop records,
  deliveries, per-flow path changes, and exact delivery quantiles --
  all in simulated time, so they regress byte-for-byte under one seed.
"""

import pytest

from benchmarks.bench_util import Rig, Row, fmt_us, measured_cut, report
from repro.constants import MS, SEC
from repro.scenario import attach_pair
from repro.topology import torus


def _workload(inband: bool):
    """One full run; returns (delivered count, network)."""
    net = Rig(Row(torus(3, 4), network={"inband": inband})).net
    sinks = attach_pair(net, period_ns=2 * MS, data_bytes=256)
    measured_cut(net, cut=(0, 1), load_ns=1 * SEC)
    return sum(s.count for s in sinks), net


@pytest.mark.benchmark(group="inband")
def test_inband_overhead(benchmark):
    def run():
        return _workload(False), _workload(True)

    (seen_off, _off), (seen_on, net) = benchmark.pedantic(run, rounds=1, iterations=1)
    # observational-only: the run itself is unchanged by the layer
    assert seen_on == seen_off > 0
    report(
        "inband_overhead",
        "In-band stamping is observational (torus-3x4, periodic pair across a cut)",
        ["mode", "deliveries", "hop records"],
        [
            ["off", seen_off, 0],
            ["on", seen_on, net.inband.hops_recorded],
        ],
        notes=(
            "the same run with the layer off and on delivers the same datagrams; "
            "the disabled path is one load + None test per stamp site"
        ),
    )


@pytest.mark.benchmark(group="inband")
def test_inband_accounting(benchmark):
    def run():
        return _workload(True)[1]

    net = benchmark.pedantic(run, rounds=1, iterations=1)
    doc = net.inband_doc()
    changes = sum(len(flow["changes"]) for flow in doc["flows"])
    slo = doc["slo"]
    report(
        "inband_accounting",
        "In-band path accounting across one cut_link reconfiguration",
        ["flow", "delivered", "p50 (us)", "p99 (us)", "paths", "changes"],
        [
            [
                f"{flow['src_uid']:012x}->{flow['dest_uid']:012x}",
                flow["deliveries"],
                fmt_us(flow["latency_p50_ns"]),
                fmt_us(flow["latency_p99_ns"]),
                flow["paths_seen"],
                len(flow["changes"]),
            ]
            for flow in doc["flows"]
        ],
        notes=(
            f"{changes} path change(s) observed; quantiles are exact "
            f"(nearest-rank over simulated-time latencies)"
        ),
        telemetry={
            "hops_recorded": doc["hops_recorded"],
            "hops_truncated": doc["hops_truncated"],
            "path_changes": changes,
            "deliveries": slo["deliveries"],
            "delivered_bytes": slo["delivered_bytes"],
            "drops_total": sum(slo["drops"].values()),
        },
    )
    assert changes >= 1, "a cut across the active path must change routes"
    assert slo["p50_ns"] is not None and slo["p99_ns"] is not None
    assert doc["hops_truncated"] == 0
