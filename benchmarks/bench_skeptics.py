"""E8 -- Skeptic hysteresis under intermittent faults (sections 4.4, 6.5.5).

Paper: faults must be responded to quickly, but intermittent switches or
links are ignored for progressively longer periods -- the status skeptic
lengthens the error-free holding period a flapping port must serve before
re-entering service, bounding the reconfiguration rate.

Measured here: a link that flaps every 2 seconds for a minute.  With the
skeptics on (paper), the port's required holding period grows and the
number of reconfigurations is bounded; with hysteresis disabled
(growth = 1), every flap round-trips through service and reconfigurations
keep pace with the flapping.
"""

import pytest

from benchmarks.bench_util import Rig, Row, report
from repro.chaos.events import CutLink, FlapLink
from repro.constants import SEC
from repro.topology import ring

#: the flap train: cable 0-1 cut every 2 s, restored 1 s later, 15 times
FLAPS = FlapLink(a=0, b=1, flaps=15, period_ns=1 * SEC)


def run_flapping(growth: float):
    params = {"monitor.skeptic.growth": growth, "monitor.conn_skeptic_growth": growth}
    rig = Rig(Row(ring(4), params=params, settle_ns=2 * SEC, faults=(FLAPS,),
                  stop=FLAPS.duration_ns + 10 * SEC)).boot()
    net = rig.net
    epochs_before = net.current_epoch()
    rig.inject()
    epochs_caused = net.current_epoch() - epochs_before
    # the grown holding period on the flapping port
    a, pa, _b, _pb = [c for c in net.spec.cables if {c[0], c[2]} == {0, 1}][0]
    hold = net.autopilots[a].monitoring.ports[pa].status_skeptic.hold_ns
    return epochs_caused, hold


@pytest.mark.benchmark(group="E8")
def test_skeptic_bounds_reconfiguration_rate(benchmark):
    def run():
        with_skeptic = run_flapping(growth=2.0)
        without = run_flapping(growth=1.0)
        return with_skeptic, without

    (epochs_skeptic, hold_skeptic), (epochs_none, hold_none) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report(
        "E8_skeptics",
        "E8: 15 link flaps over 30 s (flap period 2 s)",
        ["configuration", "reconfigurations caused", "final holding period (ms)"],
        [
            ["skeptics on (paper)", epochs_skeptic, f"{hold_skeptic / 1e6:.0f}"],
            ["hysteresis disabled", epochs_none, f"{hold_none / 1e6:.0f}"],
        ],
        notes=(
            "paper: intermittent links are ignored for progressively longer\n"
            "periods, so they cannot thrash the network"
        ),
    )
    assert hold_skeptic > 4 * hold_none, "holding period did not grow"
    assert epochs_skeptic < epochs_none, "skeptic did not reduce reconfigurations"


@pytest.mark.benchmark(group="E8")
def test_solid_fault_still_fast(benchmark):
    """Responsiveness: the hysteresis must not slow the response to a
    genuine, persistent failure."""

    def run():
        rig = Rig(Row(ring(4), settle_ns=2 * SEC, faults=(CutLink(a=0, b=1),), stop=None))
        net = rig.boot().net
        t0 = net.sim.now
        rig.inject()
        epoch = net.current_epoch()
        record = net.epochs[epoch]
        detection = record.started_at - t0
        total = max(record.configured.values()) - t0
        return detection, total

    detection, total = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E8_responsiveness",
        "E8: response to a solid link failure",
        ["quantity", "paper", "measured (ms)"],
        [
            ["failure -> reconfiguration start", "prompt", f"{detection / 1e6:.0f}"],
            ["failure -> service restored", "< 1 s", f"{total / 1e6:.0f}"],
        ],
    )
    assert detection < 500e6
    assert total < 1e9
