"""What a control packet costs: a census of the control-processor hop.

Section 6.6's reconfiguration is a storm of one-hop control packets.  Each
leaves its control processor through the crossbar's port 0 and reaches the
neighbour's control processor through a link unit's receive FIFO:

    send_addressed -> inject_from_cp -> _head_ready -> add_request -> _scan
    -> _granted -> connect_drain -> Link.send_begin -> rx_begin_packet -> ...
    -> _deliver_to_cp

This census counts what that costs on one fixed scenario, with observers
off: a seed-0 src-lan-30 boot to convergence, one cable cut and the
reconvergence after it.  Every count is exact and deterministic, so it is
the ``core`` + ``net`` cost proxy the wall-clock ledger lacks:

* **events** dispatched, by handler ``__qualname__``;
* **passes** of each queue kind -- the link units' receive FIFOs (``rx``)
  and the port-0 transmit queues (``tx``) -- by trigger, and how many were
  *idle* (the queue's state after the pass is what it was before);
* **kicks** of the scheduling engines, and how many armed nothing;
* **scans** and **grants**;
* **calls**: Python-level calls into the hop's code (``repro.net`` and the
  event loop) and into the tree-position values (``treepos``), counted by
  ``sys.setprofile`` inside this test only.

``PARENT`` is the same census taken on the tree before the port-0 queue and
host staging became one ``TransmitQueue`` (they were receive FIFOs fed by
``enqueue_buffered``), before the switch's per-port lists and folded
crossbar, and before the guarded kicks: kept beside ``CENSUS`` so that the
cut is a count, not a guess.  The trajectory is the same, so events,
passes, scans and grants are too (4 transmit-queue passes per control
packet either way; their cut is in what a pass does, which no count here
sees).  Per control packet (5 565 of them), the kicks fall from 6.0 to 2.8 and those
that arm nothing from 4.0 to 0.8, and the hop's calls from 100.2 to 90.0:
no ``Crossbar`` or ``_fifo_for`` hops, no ``record_hop`` or
``new_packet_id`` call, no drain test on a head that is all out.  The
tree-position values make about 4 ``treepos`` calls per packet either way,
but a position is now a named tuple ordered by UID values: building one
fell from about 1.7 to 0.5 us and comparing two from 1.1 to 0.4 us, and
``Uid``'s generated ordering runs 1 021 times instead of 5 627 (not in the
table: from 3.13 on that ordering makes a different number of calls).
"""

import sys
from collections import Counter
from functools import wraps
from pathlib import Path

from repro.constants import SEC
from repro.core import routing
from repro.net import fifo as fifo_module
from repro.net.fifo import ReceiveFifo, TransmitQueue
from repro.net.scheduler import SchedulingEngine
from repro.network import Network
from repro.topology import resolve_topology

SRC = Path(fifo_module.__file__).resolve().parents[1]
#: the hop's code, and the per-message protocol values beside it: what a
#: call into each is counted under
HOP = {str(path): f"{path.parent.name}/{path.name}"
       for path in [*sorted((SRC / "net").glob("*.py")), SRC / "sim" / "engine.py",
                    SRC / "core" / "treepos.py"]}

#: entry point -> trigger; a pass is charged to the innermost (a transmit
#: queue inherits every receive-FIFO entry point but its own ``enqueue``)
ENTRIES = {
    (ReceiveFifo, "begin_packet"): "begin",
    (ReceiveFifo, "set_in_rate"): "set-rate",
    (ReceiveFifo, "end_packet"): "end",
    (ReceiveFifo, "connect_drain"): "grant",
    (ReceiveFifo, "recompute"): "recompute",
    (ReceiveFifo, "clear"): "clear",
    (ReceiveFifo, "_on_boundary"): "boundary",
    (ReceiveFifo, "_complete_head"): "next-head",
    (TransmitQueue, "enqueue"): "enqueue",
}


def queue_state(queue):
    """Everything a pass may change, the entries' identities included."""
    return (
        queue.in_rate, queue.drain_rate, queue._level_stop, queue.overflowed,
        queue._boundary_at if queue._boundary is not None else None,
        queue.cut_through_packets, queue.buffered_packets,
        tuple(
            (id(e), e.bytes_in, e.bytes_out, e.arriving, e.requested, e.drain_started,
             e.targets is not None)
            for e in queue.queue
        ),
    )


class Census:
    """Counts passes, kicks and events while installed."""

    def __init__(self, monkeypatch):
        self.passes = Counter()
        self.idle = Counter()
        self.kicks = Counter()
        self.events = Counter()
        self.stack = []
        for (cls, method), trigger in ENTRIES.items():
            monkeypatch.setattr(cls, method, self._entry(getattr(cls, method), trigger))
        for cls in (ReceiveFifo, TransmitQueue):
            monkeypatch.setattr(cls, "_recompute", self._pass(cls._recompute))
        monkeypatch.setattr(SchedulingEngine, "_kick", self._kick(SchedulingEngine._kick))

    def _entry(self, method, trigger):
        @wraps(method)  # an event keeps its handler's name
        def entry(queue, *args, **kwargs):
            self.stack.append(trigger)
            try:
                return method(queue, *args, **kwargs)
            finally:
                self.stack.pop()
        return entry

    def _pass(self, method):
        def counted(queue):
            key = "tx" if isinstance(queue, TransmitQueue) else "rx", self.stack[-1]
            before = queue_state(queue)
            method(queue)
            self.passes[key] += 1
            if queue_state(queue) == before:
                self.idle[key] += 1
        return counted

    def _kick(self, method):
        def counted(engine):
            armed = engine._scan_event
            method(engine)
            self.kicks["calls"] += 1
            if engine._scan_event is armed:
                self.kicks["armed nothing"] += 1
        return counted

    # -- the EventLoopProfiler slots Simulator.run calls -------------------------------

    def begin_run(self):
        pass

    def end_run(self):
        pass

    def account_call(self, fn, elapsed_ns):
        self.events[fn.__qualname__] += 1


def take_census(monkeypatch):
    # routing interns its entries: start cold, whatever ran in this process
    routing._entry.cache_clear()
    net = Network(resolve_topology("src-lan-30"), seed=0, telemetry=False)
    census = Census(monkeypatch)
    net.sim.profiler = census
    calls = Counter()

    def count_calls(frame, event, arg):
        # defs only: from 3.12 on a list comprehension runs in its caller's frame
        if event == "call" and not frame.f_code.co_name.startswith("<"):
            where = HOP.get(frame.f_code.co_filename)
            if where is not None:
                calls[where] += 1

    sys.setprofile(count_calls)
    try:
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.cut_link(0, 1)
        assert net.run_until_converged(timeout_ns=60 * SEC)
    finally:
        sys.setprofile(None)
    engines = [switch.engine for switch in net.switches]
    return {
        "control packets": net.sim.packet_ids,
        "events": dict(census.events),
        "passes": {key: (census.passes[key], census.idle[key]) for key in sorted(census.passes)},
        "kicks": (census.kicks["calls"], census.kicks["armed nothing"]),
        "scans": census.events["SchedulingEngine._scan"],
        "grants": sum(engine.grants for engine in engines),
        "calls": dict(sorted(calls.items())),
    }


#: the tree before ``TransmitQueue``, the per-port lists and the guarded kicks
PARENT = {
    "control packets": 5565,
    "events": {
        "FlowControlSender._emit": 240,
        "LinkUnit._send_directive": 240,
        "LinkUnit.rx_flow_control": 236,
        "Periodic._tick": 5970,
        "Monitoring.sample_all": 5670,
        "Monitoring.probe_all": 270,
        "TaskScheduler._wake": 6071,
        "SchedulingEngine._scan": 11128,
        "LinkUnit.rx_begin_packet": 5565,
        "ReceiveFifo._on_boundary": 20577,
        "TaskScheduler._arrive": 5613,
        "Autopilot._process": 5551,
        "ReconfigEngine._finish_assignment": 2,
        "ReconfigEngine._retransmit": 177,
        "ReconfigEngine._load_configuration": 60,
    },
    "passes": {
        ("rx", "begin"): (5565, 38),
        ("rx", "boundary"): (15012, 0),
        ("rx", "clear"): (2522, 2510),
        ("rx", "grant"): (5563, 0),
        ("rx", "next-head"): (5551, 5513),
        ("tx", "boundary"): (5565, 0),
        ("tx", "clear"): (210, 210),
        ("tx", "enqueue"): (5565, 2215),
        ("tx", "grant"): (5565, 0),
        ("tx", "next-head"): (5565, 3350),
    },
    "kicks": (33374, 22246),
    "scans": 11128,
    "grants": 11128,
    "calls": {
        "core/treepos.py": 22135,
        "net/fifo.py": 175625,
        "net/flowcontrol.py": 1684,
        "net/forwarding.py": 22504,
        "net/link.py": 37342,
        "net/linkunit.py": 31697,
        "net/packet.py": 27823,
        "net/scheduler.py": 89218,
        "net/switch.py": 84079,
        "sim/engine.py": 87767,
    },
}
#: this tree: the same trajectory, so the same events, passes, scans and
#: grants; what moved is the calls the hop makes and the kicks that arm nothing
CENSUS = {
    **PARENT,
    "kicks": (15591, 4463),
    "calls": {
        **PARENT["calls"],
        "net/link.py": 31777,
        "net/packet.py": 16695,
        "net/scheduler.py": 71435,
        "net/switch.py": 61625,
        "sim/engine.py": 87815,
    },
}


def test_control_plane_census(monkeypatch):
    assert take_census(monkeypatch) == CENSUS
