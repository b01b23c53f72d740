"""The flow-level fluid model: paths from live forwarding tables,
max-min fair rate shares, piecewise-constant integration.

The engine never simulates a data packet: between re-solve events every
flow transfers at a constant rate, so a thousand-flow workload costs a
handful of events per epoch rather than millions.  Flows between the
same two switches walk one path and get one rate, so the plan keeps a
:class:`Pair` with a flow count for them, not an entry per flow.  The
two primitives here are pure functions over the live network state:

* :func:`walk_path` follows the loaded up*/down* forwarding tables from
  a source switch toward the destination's short address exactly as a
  packet would, taking the lowest-numbered port of each multipath entry
  (the deterministic stand-in for the hardware's random pick).  A
  DISCARD entry, a cut or reflecting cable, a dead switch, or a
  transient loop all mean *no route* -- which is precisely the blackout
  the observatory prices.
* :func:`solve_rates` water-fills link capacity (1 byte per
  ``BYTE_TIME_NS``) max-min fairly across the routed pairs, each
  weighted by its flow count, over per-link lists the caller keeps.

Paths are re-walked only when something they depend on changes: a
forwarding-table ``generation`` bump, a fault or a flap edge (see
:class:`repro.traffic.engine.TrafficEngine`).  The per-flow solver this
replaced is the test oracle ``tests/naive_fluid.py``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constants import BYTE_TIME_NS, CONTROL_PROCESSOR_PORT
from repro.net.link import LinkState

#: fluid link capacity in bytes per nanosecond (3.125 MB/s per §2 link
#: pair is the paper's hardware; the simulator's links move one byte per
#: BYTE_TIME_NS, so the fluid model matches the packet simulation)
LINK_CAPACITY = 1.0 / BYTE_TIME_NS

#: a walked path: the :func:`cable_hops` link id of every cable crossed,
#: empty tuple for same-switch delivery
Path = Tuple[int, ...]

#: (switch index, out port) -> (far switch, far port, link id)
Hops = Dict[Tuple[int, int], Tuple[int, int, int]]


class Pair:
    """The rate plan's record for the ``count`` active flows between
    ``switches`` (source, destination): their one walked path (``None``:
    no route) and their one solved ``rate``."""

    __slots__ = ("switches", "links", "count", "rate")

    def __init__(self, switches: Tuple[int, int]) -> None:
        self.switches = switches
        self.links: Optional[Path] = None
        self.count = 0
        self.rate: Optional[float] = 0.0  # None only inside solve_rates


def cable_hops(network) -> Hops:
    """Where each cabled switch port leads, and over which link.

    A link's canonical key is the (switch index, port) of its lower end;
    link ids number those keys in key order, so comparing two ids
    compares their keys (the solver's tie-break).  Cabling never changes
    after construction, so this is computed once per engine and stays
    valid across faults and power cycles.
    """
    cables = sorted(sorted(((a, pa), (b, pb))) for a, pa, b, pb in network.spec.cables)
    hops: Hops = {}
    for link, (low, high) in enumerate(cables):
        hops[low] = (*high, link)
        hops[high] = (*low, link)
    return hops


def walk_path(
    network,
    hops: Hops,
    src_switch: int,
    dst_switch: int,
    max_hops: int = 64,
) -> Optional[Path]:
    """The link sequence a packet from ``src_switch`` to ``dst_switch``
    would traverse right now, or None when the tables cannot deliver it."""
    if not network.autopilots[src_switch].alive:
        return None
    if src_switch == dst_switch:
        return ()
    address = network.short_address_of(dst_switch, CONTROL_PROCESSOR_PORT)
    if address is None:
        return None  # destination not configured: nothing routes to it
    sw = src_switch
    in_port = CONTROL_PROCESSOR_PORT
    links: List[int] = []
    for _ in range(max_hops):
        if sw == dst_switch:
            return tuple(links)
        if not network.autopilots[sw].alive:
            return None
        entry = network.switches[sw].table.lookup(in_port, address)
        if entry.is_discard or not entry.ports:
            return None
        out = entry.ports[0]
        hop = hops.get((sw, out))
        if hop is None:
            return None  # the wrong switch's CP, or a host port: not a transit hop
        if network.links[sw, out].state is not LinkState.UP:
            return None  # table still points at a dead cable: blackout
        sw, in_port, link = hop
        links.append(link)
    return None  # loop or absurdly long path: treat as unrouted


def solve_rates(pairs: Iterable[Pair], crossing: Sequence[Iterable[Pair]],
                load: Sequence[int]) -> None:
    """Set every pair's max-min fair ``rate`` (bytes/ns per flow).

    Progressive filling over the caller's per-link view: ``crossing[link]``
    holds the routed pairs crossing the link, in any order, and
    ``load[link]`` their flows.  Repeatedly pop the tightest link from a
    heap of ``(share, link)`` (least remaining capacity per unfrozen
    flow, ties to the lowest id), freeze its pairs at that share, and
    subtract it once per frozen flow -- never ``share * flows``, which
    keeps every float bit-equal to solving flow by flow -- from each link
    they cross that still carries flows; re-push those.  Every link
    offers ``LINK_CAPACITY``; same-switch pairs run at access line rate,
    unrouted ones at 0 (DESIGN.md).
    """
    capacity = LINK_CAPACITY
    for pair in pairs:
        links = pair.links
        pair.rate = None if links else 0.0 if links is None else capacity
    load = list(load)  # the caller's counts; filling consumes the copy
    remaining = [capacity] * len(load)
    current: List[Optional[float]] = [None] * len(load)  # each link's live entry
    before = [0] * len(load)  # a touched link's load when its round began
    heap = []
    for link, flows in enumerate(load):
        if flows:
            current[link] = share = capacity / flows
            heap.append((share, link))
    heapify(heap)
    while heap:
        share, link = heappop(heap)
        if current[link] != share:
            continue  # stale: the link's share moved, or it emptied
        touched = []
        for pair in crossing[link]:
            if pair.rate is None:
                pair.rate = share
                count = pair.count
                for hop in pair.links:
                    flows = load[hop]
                    if current[hop] is not None:  # first touch this round
                        current[hop] = None
                        before[hop] = flows
                        touched.append(hop)
                    load[hop] = flows - count
        for hop in touched:
            flows = load[hop]
            if flows:
                left = remaining[hop]
                for _ in range(before[hop] - flows):
                    left -= share
                remaining[hop] = left
                current[hop] = share_left = left / flows
                heappush(heap, (share_left, hop))
