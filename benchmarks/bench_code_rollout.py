"""E16 -- Autopilot release propagation (sections 5.4 and 7).

Paper: new Autopilot versions download over the Autonet itself and
propagate switch to switch, each switch rebooting into the new image.
"These symptoms were especially noticeable when the release of a new
version of Autopilot caused 30 or more reconfigurations in quick
succession.  We now limit the disruption caused by the release of new
Autopilot versions by making compatible versions propagate more slowly."

Measured here: a version rollout across the 30-switch SRC LAN with fast
vs paced propagation, under an RPC workload -- reconfiguration count,
rollout completion time, and the worst client outage.
"""

import pytest

from benchmarks.bench_util import Rig, Row, Rpc, report
from repro.constants import MS, SEC
from repro.topology import src_service_lan

#: an RPC pair across the SRC LAN (a release is not a fault: the
#: measurement starts it)
ROW = Row(
    src_service_lan(),
    hosts={"client": [(5, 9), (6, 9)], "server": [(25, 9), (26, 9)]},
    workload=Rpc(timeout_ns=500 * MS, think_ns=5 * MS),
    load_ns=5 * SEC,
)


def run_rollout(propagate_delay_ns: int):
    rig = Rig(ROW).boot()
    net = rig.net
    client = rig.client
    epochs_before = net.current_epoch()
    t0 = net.sim.now
    net.release_autopilot_version(2, propagate_delay_ns=propagate_delay_ns)
    deadline = net.sim.now + 600 * SEC
    max_down = 0
    while net.sim.now < deadline and not (
        net.rollout_complete(2) and net.converged()
    ):
        net.run_for(100 * MS)
        down = sum(1 for ap in net.autopilots if not ap.alive)
        max_down = max(max_down, down)
    return {
        "complete": net.rollout_complete(2),
        "rollout_s": (net.sim.now - t0) / 1e9,
        "epochs": net.current_epoch() - epochs_before,
        "max_down": max_down,
        "gap_ms": client.longest_gap_ns() / 1e6,
        "timeouts": client.timeouts,
    }


@pytest.mark.benchmark(group="E16")
def test_fast_vs_paced_rollout(benchmark):
    def run():
        return run_rollout(500 * MS), run_rollout(5 * SEC)

    fast, paced = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E16_rollout",
        "E16: Autopilot version rollout across the 30-switch SRC LAN",
        ["quantity", "fast propagation (0.5 s)", "paced propagation (5 s)"],
        [
            ["rollout complete", fast["complete"], paced["complete"]],
            ["rollout time (s)", f"{fast['rollout_s']:.0f}", f"{paced['rollout_s']:.0f}"],
            ["reconfigurations caused", fast["epochs"], paced["epochs"]],
            ["max switches down at once", fast["max_down"], paced["max_down"]],
            ["worst RPC gap (ms)", f"{fast['gap_ms']:.0f}", f"{paced['gap_ms']:.0f}"],
            ["RPC timeouts", fast["timeouts"], paced["timeouts"]],
        ],
        notes=(
            "paper: a release once caused '30 or more reconfigurations in\n"
            "quick succession'; pacing bounds how much of the fabric is down\n"
            "at any one moment (at the cost of rollout time)"
        ),
    )
    assert fast["complete"] and paced["complete"]
    # every switch reboots either way: a wave of reconfigurations,
    # reproducing the paper's "30 or more in quick succession"
    assert fast["epochs"] >= 30
    assert paced["rollout_s"] > fast["rollout_s"]
    assert paced["max_down"] < fast["max_down"]
