"""The versioned ``repro.traffic/1`` artifact: its schema table and its
text report.

One JSON document per workload run, mirroring the other obs artifacts
(``repro.bench/1``, ``repro.obs.inband/2``): a ``schema`` tag, the
generating config, cumulative SLO aggregates (offered/delivered bytes,
blackout cost, delivery-latency quantiles, drops by cause), and the
per-epoch ``windows`` that price each reconfiguration span's
undelivered offered load.  The check is structural -- types, ranges,
required fields -- so CI can gate any produced artifact without
re-running the workload; :mod:`repro.obs.artifact` walks, reads and
writes it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.artifact import (
    BOOL,
    COUNT,
    NAME,
    NONNEG,
    NUM,
    STR,
    Enum,
    Int,
    Map,
    Opt,
    Schema,
    SchemaError,
    keys,
    validate,
)
from repro.scenario import fmt_ns
from repro.traffic.workload import ARRIVAL_PATTERNS

TRAFFIC_SCHEMA = "repro.traffic/1"

TrafficSchemaError = SchemaError  # the name benchmarks/e2e catches


def _fmt_bytes(value) -> str:
    if value is None:
        return "-"
    if value < 1_024:
        return f"{value:.0f}B"
    if value < 1_048_576:
        return f"{value / 1024:.1f}KiB"
    if value < 1_073_741_824:
        return f"{value / 1048576:.2f}MiB"
    return f"{value / 1073741824:.2f}GiB"


def render_report(doc: Dict[str, Any]) -> str:
    """The human-readable report for one ``repro.traffic/1`` document."""
    config = doc["config"]
    lines = [
        f"traffic SLO report: {doc['name'] or '(unnamed)'}",
        (
            f"  workload: {config['pattern']} x{config['flows']} flows over "
            f"{config['hosts']} hosts, mean {_fmt_bytes(config['mean_flow_bytes'])}"
            f", {config['mode']} mode"
        ),
        (
            f"  flows: {doc['flows_completed']} completed, "
            f"{doc['flows_active']} active ({doc['flows_unrouted']} unrouted), "
            f"{doc['flows_pending']} pending"
        ),
        (
            f"  offered {_fmt_bytes(doc['offered_bytes'])}  "
            f"delivered {_fmt_bytes(doc['delivered_bytes'])}  "
            f"blackout cost {_fmt_bytes(doc['blackout_cost_bytes'])}"
        ),
        (
            f"  goodput {_fmt_bytes(doc['goodput_bytes_per_sec'])}/s  "
            f"delivery latency p50 {fmt_ns(doc['latency']['p50_ns'])} "
            f"p99 {fmt_ns(doc['latency']['p99_ns'])} "
            f"(n={doc['latency']['count']})"
        ),
    ]
    if doc["drops"]:
        causes = ", ".join(f"{k}={v}" for k, v in doc["drops"].items())
        lines.append(f"  drops by cause: {causes}")
    if doc["windows"]:
        lines.append("  per-epoch goodput / blackout cost:")
        for window in doc["windows"]:
            end = window["end_ns"]
            span = (
                f"[+{window['start_ns'] / 1e9:.3f}s.."
                f"{'+' + format(end / 1e9, '.3f') + 's' if end is not None else 'open'}]"
            )
            lines.append(
                f"    epoch {window['epoch']:>3} {span} "
                f"blackout {fmt_ns(window['max_blackout_ns'])}: "
                f"goodput {_fmt_bytes(window['goodput_bytes_per_sec'])}/s, "
                f"cost {_fmt_bytes(window['blackout_cost_bytes'])}"
            )
    return "\n".join(lines)


ARTIFACT = Schema(
    {
        "name": STR,
        "config": {
            "pattern": Enum(*ARRIVAL_PATTERNS),
            # always "fluid" now; "packet" is read back from files written
            # while the per-packet model (tests/naive_traffic.py) had a mode
            "mode": Enum("fluid", "packet"),
            **keys(COUNT, "flows", "hosts", "mean_flow_bytes", "duration_ns"),
        },
        "launched": BOOL,
        **keys(COUNT, "time_ns", "generated_flows", "flows_completed", "flows_active"),
        **keys(COUNT, "flows_pending", "flows_unrouted"),
        **keys(NONNEG, "offered_bytes", "delivered_bytes", "blackout_cost_bytes"),
        "goodput_bytes_per_sec": Opt(NUM),
        "latency": {"count": COUNT, **keys(Opt(NUM), "p50_ns", "p99_ns", "mean_ns", "max_ns")},
        "drops": Map(COUNT, keys=NAME),
        "segments": keys(COUNT, "recorded", "dropped"),
        "windows": [
            {
                "epoch": Int(-(10**9)),
                "start_ns": COUNT,
                "end_ns": Opt(COUNT),
                **keys(NUM, "offered_bytes", "delivered_bytes", "blackout_cost_bytes"),
                **keys(Opt(NUM), "max_blackout_ns", "goodput_bytes_per_sec"),
            }
        ],
        "flows_sample": [
            {
                **keys(COUNT, "flow_id", "arrival_ns", "src_host", "dst_host", "size_bytes"),
                "state": Enum("pending", "active", "unrouted", "completed"),
                "latency_ns": Opt(NUM),
            }
        ],
    },
    render=render_report,
)


def validate_traffic(doc: Any) -> Dict[str, Any]:
    """Structurally validate a traffic document; returns it on success."""
    return validate(doc, TRAFFIC_SCHEMA)
