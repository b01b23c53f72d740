"""E13 -- Epochs serialize overlapping reconfigurations (section 6.6.2).

Paper: each reconfiguration message carries a 64-bit epoch number; a
switch joins any higher epoch it hears, and any change in the usable link
set during an epoch starts a new one.  If changes stop, the highest epoch
is adopted everywhere and completes, so multiple unsynchronized failures
converge to exactly one final consistent configuration.

Measured here: three link failures injected at staggered points *during*
an in-progress reconfiguration of the SRC LAN; the network must converge
to a single epoch with every switch holding the same topology and
switch-number assignment.
"""

import pytest

from benchmarks.bench_util import Rig, Row, fmt_ms, report
from repro.chaos.events import CutLink
from repro.constants import MS, SEC
from repro.topology import src_service_lan

#: three failures, the later two landing mid-reconfiguration
ROW = Row(
    src_service_lan(),
    settle_ns=2 * SEC,
    faults=(CutLink(a=0, b=1), CutLink(at_ns=30 * MS, a=8, b=9),
            CutLink(at_ns=60 * MS, a=16, b=17)),
    stop=None,
)


@pytest.mark.benchmark(group="E13")
def test_overlapping_failures_converge(benchmark):
    def run():
        rig = Rig(ROW).boot()
        net = rig.net
        epoch_before = net.current_epoch()
        links_before = len(net.topology().links)
        t0 = net.sim.now
        rig.inject()

        final_epochs = {ap.epoch for ap in net.alive_autopilots()}
        topologies = {
            frozenset(ap.engine.topology.switches) for ap in net.alive_autopilots()
        }
        numberings = {
            tuple(sorted(ap.engine.topology.numbers.items()))
            for ap in net.alive_autopilots()
        }
        time_to_settle = net.sim.now - t0
        return {
            "epochs_used": max(final_epochs) - epoch_before,
            "final_epochs": final_epochs,
            "distinct_topologies": len(topologies),
            "distinct_numberings": len(numberings),
            "links_removed": links_before - len(net.topology().links),
            "settle_ns": time_to_settle,
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E13_epochs",
        "E13: three staggered link failures during reconfiguration (SRC LAN)",
        ["quantity", "paper", "measured"],
        [
            ["epochs consumed", ">= 1 per change", r["epochs_used"]],
            ["final epochs across switches", "exactly one", sorted(r["final_epochs"])],
            ["distinct final topologies", "one", r["distinct_topologies"]],
            ["distinct final numberings", "one", r["distinct_numberings"]],
            ["links removed from configuration", "3", r["links_removed"]],
            ["settle time (ms, incl. convergence check)", "-", fmt_ms(r["settle_ns"])],
        ],
        notes=(
            "paper: 'the highest numbered epoch eventually will be adopted by\n"
            "all switches, and the reconfiguration process for that epoch will\n"
            "complete'"
        ),
    )
    assert len(r["final_epochs"]) == 1
    assert r["distinct_topologies"] == 1
    assert r["distinct_numberings"] == 1
    assert r["links_removed"] == 3
    assert r["epochs_used"] >= 2
