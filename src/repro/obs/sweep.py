"""Scaling sweeps: how reconfiguration cost grows with network size.

The paper closes by asking about "the performance characteristics of
different topologies" -- a question its authors could not answer beyond
their 30-switch SRC LAN.  This module is the instrument: it runs the
one measured scenario (:func:`repro.scenario.drive_scenario`: converge
from cold boot, cut the first cable, reconverge) across a ladder of
topologies and records, per point,

* ``converge_ns``          -- sim time until every switch is configured
  with its forwarding table loaded after cold boot;
* ``reconfig_ns``          -- duration of the fault-triggered
  reconfiguration epoch (the paper's table 1 metric);
* ``blackout_ns``          -- the worst per-switch data blackout of that
  epoch (shutter close -> reopen, §6.4);
* ``control_packets`` / ``control_bytes`` / ``control_retx`` -- the
  control-plane volume the fault injected (repro.obs.control);
* ``fifo_highwater_bytes`` -- the deepest any receive FIFO got;
* ``events_per_sec``       -- simulator throughput (wall-clock; excluded
  from deterministic comparisons).

Results go into a versioned ``repro.obs.sweep/1`` artifact together
with log-log least-squares slope fits per metric, so "blackout grows
with exponent 1.4 in switch count" is a number a CI gate can hold.

Points whose switch count exceeds the 126-switch short-address ceiling
(``MAX_SWITCH_NUMBER``, §3: 11 bits of short address minus the
four port bits) are recorded explicitly as ``skipped`` -- the ceiling
is itself a scaling finding, not something to silently truncate.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.artifact import (
    COUNT,
    INT,
    NAME,
    NUM,
    STR,
    Enum,
    Int,
    Map,
    Schema,
    check,
    fail,
    validate,
)
from repro.types import MAX_SWITCH_NUMBER

SWEEP_SCHEMA = "repro.obs.sweep/1"

#: every metric a sweep point may carry (set_metric raises on any other)
SWEEP_METRICS = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
    "control_retx",
    "fifo_highwater_bytes",
    "events_per_sec",
    # workload SLO metrics; present only when the sweep ran with traffic
    "traffic_blackout_cost_bytes",
    "traffic_p99_latency_ns",
    "traffic_goodput_bytes_per_sec",
)

#: metrics every simulated ("ok") point must report
REQUIRED_METRICS = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
)

#: metrics that depend on wall-clock time: real but not deterministic,
#: so regression gates treat them as telemetry, never as exact rows
WALL_CLOCK_METRICS = ("events_per_sec",)

#: named topology ladders.  ``smoke`` is the CI-sized rung set; ``full``
#: climbs to the largest simulable sizes; ``scale`` adds the points the
#: ISSUE asks about that sit beyond the 126-switch address ceiling --
#: they appear in the artifact as explicit skips.
LADDERS: Dict[str, Tuple[str, ...]] = {
    "smoke": ("torus-3x4", "torus-4x4", "fat-tree-4", "dcell-3l1"),
    "full": (
        "torus-3x4",
        "torus-4x4",
        "torus-5x5",
        "torus-6x6",
        "torus-8x8",
        "torus-10x10",
        "torus-11x11",
        "fat-tree-4",
        "fat-tree-6",
        "fat-tree-8",
        "dcell-3l1",
        "dcell-4l1",
        "dcell-2l2",
    ),
    "scale": (
        "torus-3x4",
        "torus-4x4",
        "torus-5x5",
        "torus-6x6",
        "torus-8x8",
        "torus-10x10",
        "torus-11x11",
        "torus-16x16",
        "torus-32x32",
        "fat-tree-4",
        "fat-tree-6",
        "fat-tree-8",
        "dcell-3l1",
        "dcell-4l1",
        "dcell-2l2",
        "dcell-3l2",
    ),
}

#: sim-time budget per convergence wait (Network.run_until_converged
#: steps deterministically and demands oracle agreement, §6.6)
CONVERGE_LIMIT_NS = 60_000_000_000

#: traffic-enabled rungs: workload size scales with the rung and each
#: side of the cut runs one arrival window of load
TRAFFIC_FLOWS_PER_SWITCH = 8
TRAFFIC_HOSTS_PER_SWITCH = 4
TRAFFIC_WINDOW_NS = 500_000_000


class SweepPoint:
    """One topology rung of a sweep: identity plus validated metrics."""

    __slots__ = ("name", "switches", "links", "status", "skip_reason", "metrics")

    def __init__(self, name: str, switches: int, links: int) -> None:
        self.name = name
        self.switches = switches
        self.links = links
        self.status = "ok"
        self.skip_reason: Optional[str] = None
        self.metrics: Dict[str, float] = {}

    def skip(self, reason: str) -> None:
        self.status = "skipped"
        self.skip_reason = reason

    def set_metric(self, name: str, value: float) -> None:
        """Record one metric; the name must be a known sweep series."""
        if name not in SWEEP_METRICS:
            raise ValueError(
                f"unknown sweep metric {name!r} (known: {', '.join(SWEEP_METRICS)})"
            )
        self.metrics[name] = value

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "switches": self.switches,
            "links": self.links,
            "status": self.status,
            "metrics": dict(self.metrics),
        }
        if self.skip_reason is not None:
            out["skip_reason"] = self.skip_reason
        return out


def run_point(name: str, seed: int, traffic: bool = False) -> SweepPoint:
    """Run the seeded fault scenario on one topology rung.

    ``traffic=True`` additionally drives a small deterministic hotspot
    workload through the cut (fluid model) and reports its SLO metrics;
    the default keeps rungs workload-free so existing curves and their
    baselines stay comparable.
    """
    from repro.network import Network
    from repro.scenario import drive_scenario
    from repro.sim.rng import RngRegistry
    from repro.topology.generators import resolve_topology

    spec = resolve_topology(name)
    point = SweepPoint(name, switches=len(spec.uids), links=len(spec.cables))
    if point.switches > MAX_SWITCH_NUMBER:
        point.skip(
            f"{point.switches} switches exceed the {MAX_SWITCH_NUMBER}-switch "
            "short-address ceiling (11-bit address minus 4 port bits, §3)"
        )
        return point

    child = RngRegistry(seed).child_seed(f"sweep/{name}")
    traffic_config = None
    if traffic:
        from repro.traffic.workload import TrafficConfig

        traffic_config = TrafficConfig(
            pattern="hotspot",
            flows=TRAFFIC_FLOWS_PER_SWITCH * point.switches,
            hosts=TRAFFIC_HOSTS_PER_SWITCH * point.switches,
            mean_flow_bytes=65_536,
            duration_ns=TRAFFIC_WINDOW_NS,
        )
    net = Network(spec, seed=child, control=True, profile=True, traffic=traffic_config)
    cut_a, _pa, cut_b, _pb = spec.cables[0]
    outcome = drive_scenario(
        net,
        [(cut_a, cut_b)],
        load_ns=TRAFFIC_WINDOW_NS if traffic else 0,
        timeout_ns=CONVERGE_LIMIT_NS,
    )
    if not outcome.converged:
        point.skip(f"did not converge within {CONVERGE_LIMIT_NS} ns of boot")
        return point
    if not outcome.reconverged:
        point.skip(f"did not reconverge within {CONVERGE_LIMIT_NS} ns of the cut")
        return point
    if outcome.reconfig_ns is None:
        point.skip("link cut triggered no reconfiguration span")
        return point
    point.set_metric("converge_ns", outcome.converge_ns)
    point.set_metric("reconfig_ns", outcome.reconfig_ns)
    point.set_metric("blackout_ns", outcome.blackout_ns)
    point.set_metric("control_packets", outcome.control_packets)
    point.set_metric("control_bytes", outcome.control_bytes)
    point.set_metric("control_retx", outcome.control_retx)
    point.set_metric(
        "fifo_highwater_bytes",
        max(
            unit.fifo.max_level
            for switch in net.switches
            for unit in switch.ports.values()
        ),
    )
    profiler = net.profiler
    if profiler is not None:
        point.set_metric("events_per_sec", round(profiler.events_per_sec(), 1))
    if net.traffic is not None:
        slo = net.traffic.document()
        point.set_metric("traffic_blackout_cost_bytes", slo["blackout_cost_bytes"])
        p99 = slo["latency"]["p99_ns"]
        if p99 is not None:
            point.set_metric("traffic_p99_latency_ns", p99)
        goodput = slo["goodput_bytes_per_sec"]
        if goodput is not None:
            point.set_metric("traffic_goodput_bytes_per_sec", round(goodput, 1))
    return point


def fit_slope(points: Sequence[Tuple[float, float]]) -> Optional[Dict[str, float]]:
    """Least-squares slope of log(y) against log(x).

    The slope is the scaling exponent: 1.0 means the metric grows
    linearly in switch count, 2.0 quadratically.  Returns None when
    fewer than two strictly positive samples exist.
    """
    usable = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(usable) < 2:
        return None
    logs = [(math.log(x), math.log(y)) for x, y in usable]
    n = len(logs)
    mean_x = sum(lx for lx, _ in logs) / n
    mean_y = sum(ly for _, ly in logs) / n
    var_x = sum((lx - mean_x) ** 2 for lx, _ in logs)
    if var_x == 0.0:
        return None
    cov = sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs)
    slope = cov / var_x
    var_y = sum((ly - mean_y) ** 2 for _, ly in logs)
    r2 = 0.0 if var_y == 0.0 else (cov * cov) / (var_x * var_y)
    return {"slope": round(slope, 4), "r2": round(r2, 4), "points": n}


def fit_slopes(points: Sequence[SweepPoint]) -> Dict[str, Dict[str, float]]:
    """Per-metric scaling exponents over the simulated points."""
    out: Dict[str, Dict[str, float]] = {}
    for metric in SWEEP_METRICS:
        samples = [
            (float(p.switches), float(p.metrics[metric]))
            for p in points
            if p.status == "ok" and metric in p.metrics
        ]
        fit = fit_slope(samples)
        if fit is not None:
            out[metric] = fit
    return out


def run_sweep(
    ladder: str = "smoke",
    seed: int = 0,
    topologies: Optional[Sequence[str]] = None,
    progress=None,
    traffic: bool = False,
) -> Dict[str, Any]:
    """Run every rung of a ladder and assemble the sweep document.

    ``topologies`` overrides the named ladder with an explicit rung
    list; ``progress`` (if given) is called with each finished
    :class:`SweepPoint`; ``traffic=True`` drives the fluid workload
    through every rung and adds the ``traffic_*`` SLO metrics.
    """
    if topologies is None:
        if ladder not in LADDERS:
            raise ValueError(
                f"unknown ladder {ladder!r} (known: {', '.join(sorted(LADDERS))})"
            )
        topologies = LADDERS[ladder]
    points: List[SweepPoint] = []
    for name in topologies:
        point = run_point(name, seed, traffic=traffic)
        points.append(point)
        if progress is not None:
            progress(point)
    scenario = "boot-converge, cut first cable, reconverge"
    if traffic:
        scenario += ", hotspot fluid workload through the cut"
    doc = {
        "schema": SWEEP_SCHEMA,
        "ladder": ladder,
        "seed": seed,
        "scenario": scenario,
        "metrics": list(SWEEP_METRICS),
        "points": [p.to_dict() for p in points],
        "slopes": fit_slopes(points),
    }
    return validate(doc, SWEEP_SCHEMA)


# -- the repro.obs.sweep/1 artifact ---------------------------------------------------


def _rules(doc: Dict[str, Any]) -> None:
    """At least one point; skipped points say why; simulated points
    carry every required metric."""
    if not doc["points"]:
        fail("$.points", "must be a non-empty list")
    for i, point in enumerate(doc["points"]):
        where = f"$.points[{i}]"
        if point["status"] == "skipped":
            check(STR, point.get("skip_reason"), f"{where}.skip_reason")
            continue
        missing = [m for m in REQUIRED_METRICS if m not in point["metrics"]]
        if missing:
            fail(f"{where}.metrics", f"ok point missing {missing}")


def render_sweep(doc: Dict[str, Any]) -> str:
    """Human-readable table of one sweep document."""
    lines = [
        f"scaling sweep: ladder={doc['ladder']} seed={doc['seed']} "
        f"({doc.get('scenario', '')})"
    ]
    header = (
        f"  {'topology':<14} {'sw':>5} {'links':>6} {'converge ms':>12} "
        f"{'reconfig ms':>12} {'blackout ms':>12} {'ctl pkts':>9} {'ctl KiB':>8}"
    )
    lines.append(header)
    for point in doc["points"]:
        if point["status"] == "skipped":
            lines.append(
                f"  {point['name']:<14} {point['switches']:>5} "
                f"{point['links']:>6}  skipped: {point.get('skip_reason', '')}"
            )
            continue
        m = point["metrics"]
        lines.append(
            f"  {point['name']:<14} {point['switches']:>5} {point['links']:>6} "
            f"{m['converge_ns'] / 1e6:>12.2f} {m['reconfig_ns'] / 1e6:>12.2f} "
            f"{m['blackout_ns'] / 1e6:>12.2f} {m['control_packets']:>9.0f} "
            f"{m['control_bytes'] / 1024:>8.1f}"
        )
    slopes = doc.get("slopes", {})
    if slopes:
        lines.append("  scaling exponents (log-log slope vs switches):")
        for metric, fit in slopes.items():
            lines.append(
                f"    {metric:<22} slope={fit['slope']:+.3f}  "
                f"r2={fit['r2']:.3f}  n={fit['points']}"
            )
    return "\n".join(lines)


_METRIC = Enum(*SWEEP_METRICS)
ARTIFACT = Schema(
    {
        "ladder": NAME,
        "seed": INT,
        "metrics": [_METRIC],
        "points": [
            {
                "name": NAME,
                "switches": COUNT,
                "links": COUNT,
                "status": Enum("ok", "skipped"),
                "metrics": Map(NUM, keys=_METRIC),
            }
        ],
        "slopes": Map({"slope": NUM, "r2": NUM, "points": Int(2)}, keys=_METRIC),
    },
    rules=_rules,
    render=render_sweep,
)
