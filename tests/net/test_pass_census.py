"""How many receive-FIFO passes each trigger makes, and how many move nothing.

Every FIFO state change ends in one pass (``ReceiveFifo._recompute``).  This
census counts the passes per trigger -- the entry point the pass runs
under -- and, of those, the *idle* ones: passes after which the FIFO's
state (rates, level directive, overflow latch, armed boundary instant,
drain counters, every entry's bytes and flags) is what it was when the pass
began.  The trigger's own change (an end marker closing the tail, a grant
naming the drain) happens before its pass and is not the pass's.

The triggers are the begin and end markers, a rate marker, a grant
(``connect_drain``), an external ``recompute`` (a downstream flow-control
change, a reset), a boundary event, and the re-entry ``_complete_head``
makes for the next head.  An end marker reaches a switch
FIFO only for a packet that may not have arrived whole (truncated, or its
link changed state meanwhile); neither scenario has one.  Two fixed scenarios, both with
observers off; the tables below are exact and deterministic:

* **torus-3x4 permutation**: one host per switch on its first free port,
  host ``i`` sending to host ``i + 5 (mod 12)``, after convergence 40
  packets of 64 B every 20 us and then 40 of 1 500 B every 330 us, each
  phase drained;
* **src-lan-30 steady second**: the converged network, one second on.

Whole packets leaving a control processor or a host wait in a
``TransmitQueue`` (``tests/net/test_cp_census.py``), not here.  For scale,
``benchmarks/e2e`` ``dataplane_torus`` at seed 0 makes 120 301 passes
(149 101 while host staging ran them too, 169 501 while every packet sent
a switch its end marker, all 20 400 of those passes idle); 19 501 of its
20 400 complete-head re-entries are idle.
"""

from collections import Counter

import pytest

from repro.constants import MS, SEC, US
from repro.host.localnet import LocalNet
from repro.host.workload import PeriodicSender, Sink
from repro.net.fifo import ReceiveFifo
from repro.network import Network
from repro.topology import resolve_topology

#: entry point -> trigger name; a pass is charged to the innermost one
TRIGGERS = {
    "begin_packet": "begin",
    "set_in_rate": "set-rate",
    "end_packet": "end",
    "connect_drain": "grant",
    "recompute": "recompute",
    "_on_boundary": "boundary",
    "_complete_head": "complete-head",
}

#: trigger -> (passes, idle passes)
TORUS_PERMUTATION = {
    "begin": (2880, 279),
    "set-rate": (0, 0),
    "end": (0, 0),
    "grant": (2880, 0),
    "recompute": (0, 0),
    "boundary": (7881, 0),
    "complete-head": (2880, 2601),
}
SRCLAN_STEADY_SECOND = {
    "begin": (1180, 0),
    "set-rate": (0, 0),
    "end": (0, 0),
    "grant": (1180, 0),
    "recompute": (0, 0),
    "boundary": (2955, 0),
    "complete-head": (1180, 1180),
}


def fifo_state(fifo):
    return (
        fifo.in_rate, fifo.drain_rate, fifo._level_stop, fifo.overflowed,
        fifo._boundary_at if fifo._boundary is not None else None,
        fifo.cut_through_packets, fifo.buffered_packets,
        tuple(
            (id(e), e.bytes_in, e.bytes_out, e.arriving, e.requested, e.drain_started,
             e.targets is not None)
            for e in fifo.queue
        ),
    )


class Census:
    """Counts passes per trigger while installed over :class:`ReceiveFifo`."""

    def __init__(self, monkeypatch):
        self.passes = Counter()
        self.idle = Counter()
        self.stack = []
        for method, trigger in TRIGGERS.items():
            monkeypatch.setattr(ReceiveFifo, method, self._entry(getattr(ReceiveFifo, method),
                                                                  trigger))
        monkeypatch.setattr(ReceiveFifo, "_recompute", self._pass(ReceiveFifo._recompute))

    def _entry(self, method, trigger):
        def entry(fifo, *args, **kwargs):
            self.stack.append(trigger)
            try:
                return method(fifo, *args, **kwargs)
            finally:
                self.stack.pop()
        return entry

    def _pass(self, method):
        def counted(fifo):
            trigger = self.stack[-1]
            before = fifo_state(fifo)
            method(fifo)
            self.passes[trigger] += 1
            if fifo_state(fifo) == before:
                self.idle[trigger] += 1
        return counted

    def table(self):
        return {trigger: (self.passes[trigger], self.idle[trigger])
                for trigger in TRIGGERS.values()}


def torus_permutation(monkeypatch):
    net = Network(resolve_topology("torus-3x4"), seed=0, telemetry=False)
    n = len(net.switches)
    names = [f"h{sw}" for sw in range(n)]
    for sw, name in enumerate(names):
        net.add_host(name, [(sw, net.spec.free_ports(sw)[0])])
    drivers = [net.drivers[name] for name in names]
    localnets = [LocalNet(driver) for driver in drivers]
    uids = [net.hosts[name].uid for name in names]
    assert net.run_until_converged(timeout_ns=60 * SEC)
    for driver in drivers:
        driver.kick()
    net.run_for(20 * MS)
    assert all(driver.ready for driver in drivers)
    perm = [(i + 5) % n for i in range(n)]
    # every destination sends its source one datagram: unicast addresses
    for src, dst in enumerate(perm):
        localnets[dst].send(uids[src], 64)
    net.run_for(2 * MS)
    sinks = [Sink(localnet) for localnet in localnets]

    census = Census(monkeypatch)
    for data_bytes, period_ns, count in ((64, 20 * US, 40), (1500, 330 * US, 40)):
        for src, dst in enumerate(perm):
            PeriodicSender(localnets[src], uids[dst], data_bytes, period_ns, count)
        net.run_for(count * period_ns + 5 * MS)
    assert sum(sink.count for sink in sinks) == 2 * 40 * n
    return census.table()


def srclan_steady_second(monkeypatch):
    net = Network(resolve_topology("src-lan-30"), seed=0, telemetry=False)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    census = Census(monkeypatch)
    net.run_for(1 * SEC)
    return census.table()


@pytest.mark.parametrize("scenario, expected", [
    (torus_permutation, TORUS_PERMUTATION),
    (srclan_steady_second, SRCLAN_STEADY_SECOND),
])
def test_pass_census(monkeypatch, scenario, expected):
    assert scenario(monkeypatch) == expected
