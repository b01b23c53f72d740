"""E7 -- Alternate-link failover (sections 3.9, 6.8.3).

Paper: the driver probes the local switch every few seconds; if the
switch does not respond within three seconds it switches to the alternate
link, forgets its short address, and contacts the new switch.  If neither
link works the host alternates every ten seconds.  The mechanism is
sufficient for a switch to fail without disrupting higher-level
protocols (RPC calls resume rather than break).

Measured here: the outage seen by a closed-loop RPC client when its
host's active switch crashes, and the alternation period when both
attachment switches are dead.
"""

import pytest

from benchmarks.bench_util import Rig, Row, Rpc, report
from repro.chaos.events import CrashSwitch
from repro.constants import MS, SEC
from repro.topology import ring

#: an RPC pair on a ring; the client's active attachment crashes
OUTAGE = Row(
    ring(4),
    hosts={"client": [(0, 9), (1, 9)], "server": [(2, 9), (3, 9)]},
    workload=Rpc(timeout_ns=1 * SEC, think_ns=2 * MS),
    load_ns=10 * SEC,
    faults=(CrashSwitch(index=0),),
    stop=30 * SEC,
)

#: one dual-homed host whose two attachment switches both crash
ALTERNATION = Row(
    ring(4),
    hosts={"h": [(0, 9), (1, 9)]},
    faults=(CrashSwitch(index=0), CrashSwitch(index=1)),
    stop=60 * SEC,
)


@pytest.mark.benchmark(group="E7")
def test_failover_outage(benchmark):
    def run():
        rig = Rig(OUTAGE).boot()
        client = rig.client
        before = client.completed
        assert before > 0, "RPC workload not running"
        net = rig.inject().net
        after = client.completed
        outage = client.longest_gap_ns()
        return before, after, outage, net.hosts["client"].active_index

    before, after, outage, active = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E7_failover",
        "E7: host failover when the active switch crashes",
        ["quantity", "paper", "measured"],
        [
            ["failover timeout", "3 s of silence", "3 s (configured)"],
            ["adopted alternate port", "yes", active == 1],
            ["RPC outage (s)", "< protocol timeouts", f"{outage / 1e9:.1f}"],
            ["RPCs completed after crash", "service continues", after - before],
        ],
        notes=(
            "paper: 'the mechanism is sufficient to allow a switch to fail\n"
            "without disrupting higher-level protocols'"
        ),
    )
    assert active == 1, "driver did not adopt the alternate port"
    assert after > before + 10, "RPC service did not resume"
    # outage = detection (<=3s) + reconfiguration + address re-learning
    assert 2 * SEC < outage < 12 * SEC


@pytest.mark.benchmark(group="E7")
def test_alternation_when_both_links_dead(benchmark):
    def run():
        rig = Rig(ALTERNATION).boot()
        driver = rig.net.drivers["h"]
        switches_before = driver.failovers
        rig.inject()
        return driver.failovers - switches_before

    alternations = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E7_alternation",
        "E7: link alternation with both attachment switches dead",
        ["quantity", "paper", "measured"],
        [["alternations in 60 s", "~6 (once per 10 s)", alternations]],
    )
    assert 4 <= alternations <= 9
