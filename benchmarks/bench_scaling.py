"""Reconfiguration scaling curves: the sweep harness as a CI gate.

Runs the ``repro.obs.sweep`` smoke ladder (tori plus the data-center
families) and reports the document it returns, unchanged: the ``rungs``
table (per topology: boot convergence, fault-reconfiguration time, worst
per-switch blackout, control-plane packet/byte/retransmission volume and
peak FIFO depth, in exact ns and counts) and the ``slopes`` table (each
metric's log-log exponent against switch count, with r² and the number
of rungs fitted).

With the committed baseline in
``benchmarks/results/baselines/scaling.json`` the CI ``bench-gate`` job
turns these curves into a gate: every cell is pure simulation time, a
count or a fit over them, exactly reproducible for a given seed, and
must *equal* the baseline -- a change that bends blackout superlinear in
switch count or inflates a rung's control volume fails the build.  Only
the per-rung ``events_per_sec`` and its slope are the host's; they ride
in ``telemetry["host"]``, outside the gated surface.
"""

from benchmarks import bench_util

from repro.obs.sweep import run_sweep

#: the rung set the gate watches (CI-sized; `--ladder full` is manual)
LADDER = "smoke"

#: slopes the gate requires: the deterministic scaling exponents
GATED_SLOPES = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
    "fifo_highwater_bytes",
)


def test_scaling(benchmark):
    doc = benchmark(run_sweep, LADDER, bench_util.current_seed())
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
