"""Host-speed calibration: why this benchmark's seconds can be compared.

On the shared 2-vCPU boxes this benchmark runs on, the *effective speed*
of the machine moves between two regimes about 1.6x apart (a neighbour on
the same physical core), switching every few seconds and drifting in mix
over minutes.  User CPU time inflates with it, so it is not steal, and no
estimator over the rounds of one 20 s run can see past it: measured here,
ten back-to-back runs of identical work had an interquartile spread of
21-35 % of their median, whatever quantile of the rounds was reported.

So every round carries a :class:`SpeedProbe`: an interval timer
(``signal.setitimer``, no threads) interrupts the program every 40 ms of
wall time and times a fixed 2000-event slice of a miniature pure-Python
event loop (~1.3 ms).  The probe samples the machine's speed *during* the
phase being measured, interleaved with it at a granularity far below the
regime switches.  A phase is then reported **at reference speed**::

    scaled = (wall - time spent in probe slices) * REFERENCE_SLICE_S / tmean(slices)

with ``tmean`` a 10 %-trimmed mean (a slice that straddles a stall of the
whole VM is an outlier, not a speed).  On the data above this brought the
spread down to 2-3 %; timing the kernel only before and after each round
reached 5-8 %, because the regime often changes in between.  The raw
seconds and the measured slowdown are printed beside every scaled value.

The kernel -- a binary heap of ``(time, seq, node)`` entries, bound-method
dispatch, ``__slots__`` objects, small dict updates -- slows down with the
things that slow the simulator down.  It imports nothing from ``repro``:
a change to the program must never move its own yardstick.
"""

from __future__ import annotations

import signal
from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: seconds one probe slice takes on the reference host (2.1 GHz Xeon,
#: CPython 3.11) in its fast regime; scaled metrics read as seconds there
REFERENCE_SLICE_S = 0.00125

SLICE_EVENTS = 2_000
INTERVAL_S = 0.040
NODES = 64
#: a phase with fewer slices than this borrows the whole round's slices
MIN_SLICES = 8


class _Node:
    __slots__ = ("count", "peers", "table")

    def __init__(self) -> None:
        self.count = 0
        self.peers: List["_Node"] = []
        self.table: Dict[int, int] = {}

    def handle(self, now: int, queue: List[Tuple[int, int, "_Node"]], seq: int) -> None:
        self.count += 1
        key = (now * 7 + self.count) % 509
        self.table[key] = self.table.get(key, 0) + 1
        peer = self.peers[(now + self.count) % len(self.peers)]
        heappush(queue, (now + 1 + key % 13, seq, peer))


def kernel(events: int = SLICE_EVENTS) -> float:
    """Host seconds for ``events`` dispatches of the fixed event loop."""
    started = perf_counter()
    nodes = [_Node() for _ in range(NODES)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i * 3 + k * 5 + 1) % NODES] for k in range(4)]
    queue: List[Tuple[int, int, _Node]] = []
    seq = 0
    for node in nodes:
        seq += 1
        heappush(queue, (0, seq, node))
    for _ in range(events):
        now, _seq, node = heappop(queue)
        seq += 1
        node.handle(now, queue, seq)
    return perf_counter() - started


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    if not values:
        raise ValueError("trimmed mean of no values")
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop : len(ordered) - drop]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Times a kernel slice every ``INTERVAL_S`` while the program runs.

    Slices are filed under the phase named by the latest :meth:`phase`
    call.  Python runs signal handlers between two bytecodes of the main
    thread, so a slice is simply interleaved with the program; a timer
    tick that arrives while a slice is running is dropped.
    """

    def __init__(self) -> None:
        self.slices: Dict[str, List[float]] = {}
        self._current: List[float] = []
        self._busy = False

    def _tick(self, _signum: int, _frame: object) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._current.append(kernel())
        finally:
            self._busy = False

    def start(self, phase: str) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self.phase(phase)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def phase(self, name: str) -> None:
        """File the following slices under ``name`` (and take one now, so
        that even the shortest phase has a sample from its own start)."""
        self._current = self.slices.setdefault(name, [])
        self._tick(0, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, phase: str) -> float:
        """Seconds of ``phase`` that went into probe slices, not the program."""
        return sum(self.slices.get(phase, ()))

    def slowdown(self, phase: str) -> float:
        """How many times slower than the reference host ``phase`` ran."""
        slices = self.slices.get(phase, [])
        if len(slices) < MIN_SLICES:
            slices = [s for group in self.slices.values() for s in group]
        return trimmed_mean(slices) / REFERENCE_SLICE_S
