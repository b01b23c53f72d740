"""E14 -- The reload-implies-reset hardware coupling (section 7).

Paper: "The most significant change would be to allow the control
processor to update the forwarding table without first resetting the
switch.  Resetting destroys all packets in the switch.  Coupling
resetting with reloading causes the initial forwarding table reload of a
reconfiguration to destroy some tree-position packets, thus making
reconfiguration take longer."

Measured here: SRC LAN single-link-failure reconfigurations with the
prototype's coupled reset (paper hardware) vs the proposed decoupled
reload, reporting the reconfiguration time and the control packets
destroyed by resets.
"""

import pytest

from benchmarks.bench_util import Rig, Row, fmt_ms, measured_cut, report
from repro.topology import src_service_lan


def run_variant(reset_on_load: bool):
    net = Rig(Row(src_service_lan(), params={"reconfig.reset_on_load": reset_on_load})).net
    at_cut = []  # switch resets so far, sampled as the fault is injected
    net.on_fault = lambda _kind, _detail: at_cut.append(sum(sw.resets for sw in net.switches))
    duration = measured_cut(net, cut=(0, 1)).final_epoch_ns
    return duration, sum(sw.resets for sw in net.switches) - at_cut[0]


@pytest.mark.benchmark(group="E14")
def test_reset_coupling_ablation(benchmark):
    def run():
        return {
            "coupled reset (prototype)": run_variant(True),
            "decoupled reload (proposed)": run_variant(False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    coupled_t, coupled_r = results["coupled reset (prototype)"]
    free_t, free_r = results["decoupled reload (proposed)"]
    report(
        "E14_reset",
        "E14: forwarding-table reload with vs without the switch reset",
        ["hardware", "reconfig (ms)", "switch resets during epoch"],
        [
            ["coupled reset (prototype)", fmt_ms(coupled_t), coupled_r],
            ["decoupled reload (proposed)", fmt_ms(free_t), free_r],
        ],
        notes=(
            "paper: resets destroy in-flight packets (including tree-position\n"
            "packets), 'making reconfiguration take longer'"
        ),
    )
    assert free_r == 0
    assert coupled_r > 0
    # the proposed hardware is at least as fast
    assert free_t <= coupled_t * 1.1
