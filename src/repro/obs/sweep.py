"""Scaling sweeps: how reconfiguration cost grows with network size.

The paper closes by asking about "the performance characteristics of
different topologies" -- a question its authors could not answer beyond
their 30-switch SRC LAN.  This module is the instrument: it runs the
one measured scenario (:func:`repro.scenario.drive_scenario`: converge
from cold boot, cut the first cable, reconverge) across a ladder of
topologies and records, per rung,

* ``converge_ns``          -- sim time until every switch is configured
  with its forwarding table loaded after cold boot;
* ``reconfig_ns``          -- duration of the fault-triggered
  reconfiguration epoch (the paper's table 1 metric);
* ``blackout_ns``          -- the worst per-switch data blackout of that
  epoch (shutter close -> reopen, §6.4);
* ``control_packets`` / ``control_bytes`` / ``control_retx`` -- the
  control-plane volume the fault injected (repro.obs.control);
* ``fifo_highwater_bytes`` -- the deepest any receive FIFO got.

The result is one ``repro.bench/1`` document (bench ``scaling``) with
two tables: ``rungs`` (one row per topology, exact sim-time ns and
counts) and ``slopes`` (the log-log least-squares fit of each metric
against switch count, with its r² and sample count), so "blackout grows
with exponent 1.4 in switch count" is a number the regress gate holds.
Simulator throughput (``events_per_sec``, wall-clock) and its slope ride
in the rung table's ``telemetry["host"]``, outside the gated surface.

Rungs whose switch count exceeds the 126-switch short-address ceiling
(``MAX_SWITCH_NUMBER``, §3: 11 bits of short address minus the
four port bits) are recorded explicitly -- their ``status`` cell says
why and their metric cells are empty: the ceiling is itself a scaling
finding, not something to silently truncate.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.artifact import validate
from repro.obs.export import SCHEMA, bench_document, bench_result
from repro.types import MAX_SWITCH_NUMBER

#: the rung table's metric columns: sim-time ns and counts, exact for a seed
METRICS = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
    "control_retx",
    "fifo_highwater_bytes",
)

#: the workload SLO columns a traffic-enabled sweep adds
TRAFFIC_METRICS = (
    "traffic_blackout_cost_bytes",
    "traffic_p99_latency_ns",
    "traffic_goodput_bytes_per_sec",
)

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


def run_point(name: str, seed: int, traffic: bool = False) -> Dict[str, Any]:
    """Run the seeded fault scenario on one topology rung.

    Returns the rung's cells by column name: ``status`` is ``"ok"`` or
    why the rung was skipped (then no metric is set), plus the host's
    ``events_per_sec``.  ``traffic=True`` additionally drives a small
    deterministic hotspot workload through the cut (fluid model) and
    reports its SLO metrics; the default keeps rungs workload-free so
    existing curves and their baselines stay comparable.
    """
    from repro.network import Network
    from repro.scenario import drive_scenario
    from repro.sim.rng import RngRegistry
    from repro.topology.generators import resolve_topology

    spec = resolve_topology(name)
    switches = len(spec.uids)
    point: Dict[str, Any] = {"topology": name, "switches": switches, "links": len(spec.cables)}
    if switches > MAX_SWITCH_NUMBER:
        return {**point, "status": (
            f"{switches} switches exceed the {MAX_SWITCH_NUMBER}-switch "
            "short-address ceiling (11-bit address minus 4 port bits, §3)"
        )}

    child = RngRegistry(seed).child_seed(f"sweep/{name}")
    traffic_config = None
    if traffic:
        from repro.traffic.workload import TrafficConfig

        traffic_config = TrafficConfig(
            pattern="hotspot",
            flows=TRAFFIC_FLOWS_PER_SWITCH * switches,
            hosts=TRAFFIC_HOSTS_PER_SWITCH * switches,
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
        return {**point, "status": f"did not converge within {CONVERGE_LIMIT_NS} ns of boot"}
    if not outcome.reconverged:
        return {**point, "status": f"did not reconverge within {CONVERGE_LIMIT_NS} ns of the cut"}
    if outcome.reconfig_ns is None:
        return {**point, "status": "link cut triggered no reconfiguration span"}
    point.update(
        status="ok",
        converge_ns=outcome.converge_ns,
        reconfig_ns=outcome.reconfig_ns,
        blackout_ns=outcome.blackout_ns,
        control_packets=outcome.control_packets,
        control_bytes=outcome.control_bytes,
        control_retx=outcome.control_retx,
        fifo_highwater_bytes=max(
            unit.fifo.max_level
            for switch in net.switches
            for unit in switch.ports.values()
        ),
        events_per_sec=round(net.profiler.events_per_sec(), 1),
    )
    if net.traffic is not None:
        slo = net.traffic.document()
        goodput = slo["goodput_bytes_per_sec"]
        point.update(
            traffic_blackout_cost_bytes=slo["blackout_cost_bytes"],
            traffic_p99_latency_ns=slo["latency"]["p99_ns"],
            traffic_goodput_bytes_per_sec=None if goodput is None else round(goodput, 1),
        )
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


def fit_slopes(
    points: Sequence[Dict[str, Any]], metrics: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Per-metric scaling exponents over the rungs that report it."""
    out: Dict[str, Dict[str, float]] = {}
    for metric in metrics:
        samples = [
            (float(p["switches"]), float(p[metric]))
            for p in points
            if p.get(metric) is not None
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
    """Run every rung of a ladder and assemble the ``scaling`` document.

    ``topologies`` overrides the named ladder with an explicit rung
    list; ``progress`` (if given) is called with each finished rung's
    :func:`run_point` dict; ``traffic=True`` drives the fluid workload
    through every rung and adds the ``traffic_*`` SLO columns.
    """
    if topologies is None:
        if ladder not in LADDERS:
            raise ValueError(
                f"unknown ladder {ladder!r} (known: {', '.join(sorted(LADDERS))})"
            )
        topologies = LADDERS[ladder]
    metrics = METRICS + (TRAFFIC_METRICS if traffic else ())
    headers = ["topology", "switches", "links", "status", *metrics]
    points: List[Dict[str, Any]] = []
    for name in topologies:
        point = run_point(name, seed, traffic=traffic)
        points.append(point)
        if progress is not None:
            progress(point)
    scenario = "boot-converge, cut first cable, reconverge"
    if traffic:
        scenario += ", hotspot fluid workload through the cut"
    host: Dict[str, Any] = {
        f"{p['topology']}_events_per_sec": p["events_per_sec"]
        for p in points
        if "events_per_sec" in p
    }
    host.update({f"{m}_slope": fit for m, fit in fit_slopes(points, ["events_per_sec"]).items()})
    title = f"Reconfiguration scaling curves ({ladder} ladder: {', '.join(topologies)})"
    doc = bench_document("scaling", title=title, seed=seed, results=[
        bench_result(
            "rungs",
            title,
            headers,
            [[p.get(column) for column in headers] for p in points],
            notes=f"{scenario} per rung; status is ok or why the rung was skipped",
            telemetry={"host": host},
        ),
        bench_result(
            "slopes",
            "Scaling exponents: log-log least-squares slope vs switch count",
            ["metric", "slope", "r2", "points"],
            [
                [metric, fit["slope"], fit["r2"], fit["points"]]
                for metric, fit in fit_slopes(points, metrics).items()
            ],
            notes="over the ok rungs; points is the number of rungs fitted",
        ),
    ])
    return validate(doc, SCHEMA)
