"""E3 -- The broadcast deadlock of Figure 9 (section 6.6.6).

Paper: with flow-controlled FIFOs, a broadcast flooding down the spanning
tree can deadlock against a long unicast packet (the V/W/X/Y/Z scenario
of Figure 9).  The two-part fix: the transmitter of a broadcast packet
ignores stop until the packet ends, and the receive FIFO (4096 bytes) is
big enough to hold any complete broadcast that began under start.

Measured here: the exact Figure 9 configuration in three regimes --
pre-fix (1024-byte FIFO, stop obeyed), the paper's fix, and the fix
without the enlarged FIFO (showing why both halves are necessary).
"""

import pytest

from benchmarks.bench_util import report
from benchmarks.rigs.fig9 import build_fig9


@pytest.mark.benchmark(group="E3")
def test_fig9_regimes(benchmark):
    regimes = [
        ("pre-fix (1024B FIFO, obey stop)", 1024, False),
        ("paper fix (4096B FIFO, ignore stop)", 4096, True),
        ("half fix (1024B FIFO, ignore stop)", 1024, True),
        ("large FIFO only (4096B, obey stop)", 4096, False),
    ]

    def run():
        rows = []
        for label, fifo, fix in regimes:
            result = build_fig9(fifo_bytes=fifo, ignore_stop_in_broadcast=fix).run()
            rows.append((label, result))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E3_fig9",
        "E3: Figure 9 broadcast-deadlock scenario",
        ["regime", "deadlock", "unicast B->C", "broadcast", "FIFO overflow"],
        [
            [
                label,
                r["deadlocked"],
                "delivered" if r["unicast_delivered"] else "stuck",
                "delivered" if r["broadcast_delivered"] else "lost",
                r["fifo_overflow"],
            ]
            for label, r in rows
        ],
        notes=(
            "paper: pre-fix configuration deadlocks exactly as drawn; the fix\n"
            "requires BOTH ignore-stop and the enlarged FIFO (the half fix\n"
            "trades deadlock for overflow corruption)"
        ),
    )
    results = dict(rows)
    assert results["pre-fix (1024B FIFO, obey stop)"]["deadlocked"]
    fixed = results["paper fix (4096B FIFO, ignore stop)"]
    assert not fixed["deadlocked"] and fixed["unicast_delivered"] and fixed["broadcast_delivered"]
    half = results["half fix (1024B FIFO, ignore stop)"]
    assert not half["deadlocked"] and half["fifo_overflow"]
