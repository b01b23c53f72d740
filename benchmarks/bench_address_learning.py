"""E12 -- Dynamic short-address learning (sections 4.3, 6.8.1).

Paper: the UID cache learns from arriving packets, so packets go to the
broadcast short address only when a destination's address is genuinely
unknown (first contact, crash, or address change); ARP traffic is rare
and usually directed rather than broadcast; the cache code adds only ~15
VAX instructions per packet; and hosts can change short addresses without
causing protocol timeouts.

Measured here: a host population exchanging RPC traffic across a forced
address change (the client's attachment switch crashes, so its host
fails over and gets a new short address), reporting the broadcast
fraction, ARP counts, and whether the conversation survives.
"""

from dataclasses import replace

import pytest

from benchmarks.bench_failover import OUTAGE
from benchmarks.bench_util import Rig, report
from repro.constants import SEC

#: E7's installation, run 20 s each side of the crash that readdresses the client
ROW = replace(OUTAGE, load_ns=20 * SEC, stop=20 * SEC)


@pytest.mark.benchmark(group="E12")
def test_learning_economy(benchmark):
    def run():
        rig = Rig(ROW).boot()
        addr_before = rig.net.drivers["client"].short_address
        rig.inject()
        addr_after = rig.net.drivers["client"].short_address
        client = rig.client
        stats = rig.localnets["client"].stats
        total_sent = stats.sent_unicast + stats.sent_to_broadcast_address
        return {
            "address_changed": addr_before != addr_after,
            "completed": client.completed,
            "timeouts": client.timeouts,
            "outage_ns": client.longest_gap_ns(),
            "sent": total_sent,
            "broadcast_fraction": stats.sent_to_broadcast_address / max(1, total_sent),
            "arp_requests": stats.arp_requests_sent,
            "gratuitous": stats.gratuitous_arps + rig.localnets["server"].stats.gratuitous_arps,
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E12_learning",
        "E12: short-address learning across a forced address change",
        ["quantity", "paper", "measured"],
        [
            ["client short address changed", "(forced)", r["address_changed"]],
            ["RPCs completed", "protocols survive", r["completed"]],
            ["RPC timeouts", "no protocol timeouts", r["timeouts"]],
            ["longest gap between completions (s)", "< protocol timeouts",
             f"{r['outage_ns'] / 1e9:.1f}"],
            ["packets sent to broadcast address", "'quite small'",
             f"{r['broadcast_fraction'] * 100:.2f}% of {r['sent']}"],
            ["ARP requests sent by client", "few", r["arp_requests"]],
            ["gratuitous ARPs (address changes)", "one per change", r["gratuitous"]],
        ],
        notes=(
            "paper: 'hosts can change short addresses without causing protocol\n"
            "timeouts, yet generate little additional load'"
        ),
    )
    assert r["address_changed"]
    assert r["completed"] > 1000
    assert r["broadcast_fraction"] < 0.02
    # the outage covers failover detection; it must stay in single digits
    assert r["outage_ns"] < 10 * SEC
