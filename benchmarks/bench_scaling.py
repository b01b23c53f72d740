"""E18 -- Reconfiguration scaling curves: how reconfiguration cost grows
with network size.

The paper closes by asking about "the performance characteristics of
different topologies" -- a question its authors could not answer beyond
their 30-switch SRC LAN.  This bench runs the E-series scenario
(:func:`bench_util.measured_cut`: converge from cold boot, cut the first
cable, reconverge) across a ladder of topologies and records, per rung,

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
against switch count, with its r² and sample count).  The bench writes
both tables to ``benchmarks/results/scaling.txt``, which CI's
``bench-record`` job holds byte for byte, so "blackout grows with
exponent 1.4 in switch count" is a gated number.  Only the per-rung
``events_per_sec`` and its slope are the host's; they ride in the rung
table's ``telemetry["host"]``, in ``BENCH_scaling.json``, which is not
committed.

Rungs whose switch count exceeds the 126-switch short-address ceiling
(``MAX_SWITCH_NUMBER``, §3: 11 bits of short address minus the
four port bits) are recorded explicitly -- their ``status`` cell says
why and their metric cells are empty: the ceiling is itself a scaling
finding, not something to silently truncate.  The record holds the
``smoke`` ladder; ``run_sweep("full")`` and ``run_sweep("scale")``
climb the others.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence, Tuple

from benchmarks import bench_util
from repro.network import Network
from repro.obs.export import bench_document, bench_result
from repro.sim.rng import RngRegistry
from repro.topology.generators import resolve_topology
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

#: named topology ladders.  ``smoke`` is the CI-sized rung set; ``full``
#: climbs to the largest simulable sizes; ``scale`` adds the points that
#: sit beyond the 126-switch address ceiling -- they appear in the
#: document as explicit skips.
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

#: slopes the gate requires: the deterministic scaling exponents
GATED_SLOPES = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
    "fifo_highwater_bytes",
)


def run_point(name: str, seed: int) -> Dict[str, Any]:
    """One rung's cells by column name: ``status`` is ``"ok"`` or why
    the rung was skipped (then no metric is set), plus the host's
    ``events_per_sec``."""
    spec = resolve_topology(name)
    switches = len(spec.uids)
    point: Dict[str, Any] = {"topology": name, "switches": switches, "links": len(spec.cables)}
    if switches > MAX_SWITCH_NUMBER:
        return {**point, "status": (
            f"{switches} switches exceed the {MAX_SWITCH_NUMBER}-switch "
            "short-address ceiling (11-bit address minus 4 port bits, §3)"
        )}
    net = Network(spec, seed=RngRegistry(seed).child_seed(f"sweep/{name}"),
                  control=True, profile=True)
    outcome = bench_util.measured_cut(net, load_ns=0)
    point.update(
        {metric: getattr(outcome, metric) for metric in METRICS[:-1]},
        status="ok",
        fifo_highwater_bytes=max(
            unit.fifo.max_level
            for switch in net.switches
            for unit in switch.ports.values()
        ),
        events_per_sec=round(net.profiler.events_per_sec(), 1),
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
    ladder: str = "smoke", seed: int = 0, topologies: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Run every rung of a ladder and assemble the ``scaling`` document;
    ``topologies`` replaces the named ladder's rungs (``ladder`` then
    only names them in the title)."""
    if topologies is None:
        topologies = LADDERS[ladder]
    headers = ["topology", "switches", "links", "status", *METRICS]
    points = [run_point(name, seed) for name in topologies]
    host: Dict[str, Any] = {
        f"{p['topology']}_events_per_sec": p["events_per_sec"]
        for p in points
        if "events_per_sec" in p
    }
    host.update({f"{m}_slope": fit for m, fit in fit_slopes(points, ["events_per_sec"]).items()})
    title = f"Reconfiguration scaling curves ({ladder} ladder: {', '.join(topologies)})"
    return bench_document("scaling", title=title, seed=seed, results=[
        bench_result(
            "rungs",
            title,
            headers,
            [[p.get(column) for column in headers] for p in points],
            notes="boot-converge, cut first cable, reconverge per rung; "
                  "status is ok or why the rung was skipped",
            telemetry={"host": host},
        ),
        bench_result(
            "slopes",
            "Scaling exponents: log-log least-squares slope vs switch count",
            ["metric", "slope", "r2", "points"],
            [
                [metric, fit["slope"], fit["r2"], fit["points"]]
                for metric, fit in fit_slopes(points, METRICS).items()
            ],
            notes="over the ok rungs; points is the number of rungs fitted",
        ),
    ])


def test_scaling(benchmark):
    doc = benchmark(run_sweep, "smoke", bench_util.current_seed())
    rungs, slopes = doc["results"]
    for row in rungs["rows"]:
        rung = dict(zip(rungs["headers"], row))
        # every smoke rung fits under the 126-switch address ceiling
        assert rung["status"] == "ok", f"{rung['topology']}: {rung['status']}"
        assert rung["control_packets"] > 0 and rung["blackout_ns"] > 0
    fitted = {row[0] for row in slopes["rows"]}
    for metric in GATED_SLOPES:
        assert metric in fitted, f"no slope fit for {metric}"
    bench_util.report_document(doc)
