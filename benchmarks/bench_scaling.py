"""Reconfiguration scaling curves: the sweep harness as a CI gate.

Runs the ``repro.obs.sweep`` smoke ladder (tori plus the data-center
families) and reports, per topology rung, the deterministic simulation
metrics -- boot convergence, fault-reconfiguration time, worst
per-switch blackout, control-plane packet/byte volume, and peak FIFO
depth -- plus the fitted log-log scaling exponents in telemetry.

With the committed baseline in
``benchmarks/results/baselines/scaling.json`` the CI ``bench-gate`` job
turns these curves into a gate: every row metric and fitted slope is
pure simulation time or a count, exactly reproducible for a given seed,
and must *equal* the baseline -- a change that bends blackout
superlinear in switch count or inflates a rung's control volume fails
the build.  Only the per-rung ``events_per_sec`` is the host's; it rides
in ``telemetry["host"]``, outside the gated surface.
"""

import os
import sys

if __package__ in (None, ""):  # direct invocation
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]
    import bench_util
else:
    from benchmarks import bench_util

from repro.obs.sweep import LADDERS, run_sweep

#: the rung set the gate watches (CI-sized; `--ladder full` is manual)
LADDER = "smoke"

#: slopes the gate tracks: the deterministic scaling exponents
GATED_SLOPES = (
    "converge_ns",
    "reconfig_ns",
    "blackout_ns",
    "control_packets",
    "control_bytes",
    "fifo_highwater_bytes",
)


def test_scaling(benchmark):
    seed = bench_util.current_seed()
    doc = benchmark(run_sweep, LADDER, seed)
    rows = []
    telemetry = {"host": {}}
    for point in doc["points"]:
        # every smoke rung fits under the 126-switch address ceiling
        assert point["status"] == "ok", f"{point['name']}: {point.get('skip_reason')}"
        m = point["metrics"]
        assert m["control_packets"] > 0 and m["blackout_ns"] > 0
        rows.append([
            point["name"],
            point["switches"],
            point["links"],
            round(m["converge_ns"] / 1e6, 3),
            round(m["reconfig_ns"] / 1e6, 3),
            round(m["blackout_ns"] / 1e6, 3),
            m["control_packets"],
            m["control_bytes"],
            m["fifo_highwater_bytes"],
        ])
        telemetry["host"][f"{point['name']}_events_per_sec"] = m.get("events_per_sec", 0.0)
    for metric in GATED_SLOPES:
        fit = doc["slopes"].get(metric)
        assert fit is not None, f"no slope fit for {metric}"
        telemetry[f"slope_{metric}"] = fit["slope"]
    bench_util.report(
        "scaling",
        f"Reconfiguration scaling curves ({LADDER} ladder: "
        f"{', '.join(LADDERS[LADDER])})",
        headers=["topology", "switches", "links", "converge (ms)",
                 "reconfig (ms)", "blackout (ms)", "ctl pkts", "ctl bytes",
                 "fifo high (B)"],
        rows=rows,
        notes=(
            "boot-converge, cut first cable, reconverge per rung; row metrics\n"
            "are deterministic sim time/counts, slope_* telemetry entries are\n"
            "the log-log exponents vs switch count (repro.obs.sweep/1);\n"
            "telemetry.host.*_events_per_sec is this host's (ungated)"
        ),
        telemetry=telemetry,
    )


if __name__ == "__main__":
    bench_util.run_cli(globals())
