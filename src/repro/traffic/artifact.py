"""The versioned ``repro.traffic/1`` artifact: its schema table.

One JSON document per workload run, mirroring the other obs artifacts
(``repro.bench/1``, ``repro.obs.inband/1``): a ``schema`` tag, the
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
from repro.traffic.workload import ARRIVAL_PATTERNS

TRAFFIC_SCHEMA = "repro.traffic/1"

TrafficSchemaError = SchemaError

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
    }
)


def validate_traffic(doc: Any) -> Dict[str, Any]:
    """Structurally validate a traffic document; returns it on success."""
    return validate(doc, TRAFFIC_SCHEMA)
