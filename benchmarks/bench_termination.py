"""E10 -- Termination detection vs plain Perlman (sections 4.1, 6.6.1).

Paper: Perlman's algorithm never lets a node be sure the election has
finished, which is unacceptable because an Autonet carries no host
traffic during reconfiguration.  The extension -- stability propagation
up the forming tree -- gives the root a positive, prompt completion
signal.  The alternative is a conservative quiet-period timeout, which
either inflates every reconfiguration (long timeout) or risks committing
before the tree has settled (short timeout).

Measured here: reconfiguration times on the SRC LAN under the stability
extension vs quiescence timeouts of several lengths.
"""

import pytest

from benchmarks.bench_util import Rig, Row, fmt_ms, measured_cut, report
from repro.constants import MS
from repro.topology import src_service_lan


def reconfig_ns(mode: str, quiet_ms: int = 300):
    params = {"reconfig.termination_mode": mode, "reconfig.quiescence_timeout_ns": quiet_ms * MS}
    return measured_cut(Rig(Row(src_service_lan(), params=params)).net, cut=(0, 1)).final_epoch_ns


@pytest.mark.benchmark(group="E10")
def test_stability_vs_quiescence(benchmark):
    def run():
        return {
            "stability (paper)": reconfig_ns("stability"),
            "quiescence 200 ms": reconfig_ns("quiescence", 200),
            "quiescence 500 ms": reconfig_ns("quiescence", 500),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E10_termination",
        "E10: SRC LAN reconfiguration time by termination mechanism",
        ["termination mechanism", "reconfig (ms)"],
        [[name, fmt_ms(duration)] for name, duration in results.items()],
        notes=(
            "paper: the stability extension lets the network 'open for\n"
            "business quickly'; plain Perlman must add a conservative quiet\n"
            "period to every reconfiguration"
        ),
    )
    stability = results["stability (paper)"]
    for name, duration in results.items():
        if name.startswith("quiescence"):
            assert duration > stability, f"{name} should be slower than stability"
    # the timeout mechanism pays roughly its quiet period as overhead
    assert results["quiescence 500 ms"] > results["quiescence 200 ms"]
