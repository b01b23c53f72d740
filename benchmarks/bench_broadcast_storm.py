"""E9 -- The reflected-broadcast storm (section 7).

Paper: an unterminated coax link reflects signals, so when a host is
powered off, a broadcast packet forwarded to its port comes back looking
like a new broadcast, floods the spanning tree again, reflects again --
a "broadcast storm" with all hosts receiving thousands of broadcast
packets per second.  Fortunately the transition to unterminated almost
always produces enough bad status for the status sampler to classify the
link broken and remove it from the forwarding table, ending the storm.

Measured here: the storm rate at an innocent host, and the storm
duration until port-state monitoring removes the reflecting port; and,
with the section 7 proposal of direction-tagged links, the copies the
same broadcast delivers when the link unit discards the reflection.
"""

import pytest

from benchmarks.bench_util import Rig, Row, report
from repro.chaos.events import PowerOffHost
from repro.constants import MS
from repro.host.localnet import BROADCAST_UID
from repro.topology import line

ROW = Row(
    line(3),
    # single-homed victim: one reflecting cable sustains a circulating
    # broadcast (a dual-homed victim's two reflections double the
    # copies each round and back the fabric up within milliseconds)
    hosts={"victim": [(1, 9)], "observer": [(2, 9), (0, 8)], "sender": [(0, 10), (2, 10)]},
    bare=("victim",),
    # power the victim off, leaving its cable reflecting (section 7)
    faults=(PowerOffHost(name="victim", reflect=True),),
)
#: the same installation with section 7's direction-tagged links
TAGGED = Row(
    ROW.topology, network={"direction_tagged_links": True},
    hosts=ROW.hosts, bare=ROW.bare, faults=ROW.faults,
)


@pytest.mark.benchmark(group="E9")
def test_broadcast_storm(benchmark):
    def run(row):
        rig = Rig(row).boot().inject()
        net = rig.net
        rig.localnets["sender"].send(BROADCAST_UID, 200)  # the single broadcast that storms

        # count every wire arrival at the observer's active port,
        # including copies whose CRC fails from FIFO overflow in the storm
        ctrl = net.hosts["observer"]
        windows = []
        for _ in range(50):  # 5 s in 100 ms windows
            before = ctrl.packets_received + ctrl.crc_errors
            net.run_for(100 * MS)
            windows.append(ctrl.packets_received + ctrl.crc_errors - before)
        total = sum(windows)
        active = [i for i, count in enumerate(windows) if count > 0]
        duration_s = (active[-1] + 1) * 0.1 if active else 0.0
        peak_rate = max(windows) * 10 if windows else 0.0
        return peak_rate, duration_s, total

    rate, duration, copies = benchmark.pedantic(run, args=(ROW,), rounds=1, iterations=1)
    _, _, tagged_copies = run(TAGGED)
    report(
        "E9_storm",
        "E9: reflected-broadcast storm at an innocent host",
        ["quantity", "paper", "measured"],
        [
            ["storm rate (broadcasts/s/host)", "thousands", f"{rate:.0f}"],
            ["copies received from ONE broadcast", ">> 1", copies],
            ["storm duration until port removed (s)", "short (BadCode kills link)", f"{duration:.2f}"],
            ["arrivals with direction-tagged links (§7)", "no storm", tagged_copies],
        ],
        notes=(
            "paper: 'A reflected broadcast packet looks like a new broadcast...\n"
            "all hosts on the network receiving thousands of broadcast packets\n"
            "per second' until the status sampler removes the link\n"
            "direction-tagged: the broadcast once, plus the switch's replies to the\n"
            "observer driver's 2 s probes (section 6.8.3), which every count includes"
        ),
    )
    assert copies > 10, "no storm developed"
    assert rate > 500, "storm much slower than the paper's 'thousands per second'"
    assert duration < 5.0, "monitoring did not end the storm"
    # the broadcast and the probe replies due in 5 s: nothing reflected
    assert tagged_copies <= 3, "direction tags did not discard the reflection"
