"""Invariant checks over computed configurations.

These walk forwarding tables symbolically (no simulation) to verify the
routing goals of section 6.6: every host and switch reachable, all
operational links usable, no route violating the up*/down* rule, and
misrouted packets discarded rather than looped.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Set, Tuple

from repro.constants import CONTROL_PROCESSOR_PORT
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.net.forwarding import RowMap, distinct_rows
from repro.types import Uid, make_short_address

# Every sweep below fetches ``topology.index()`` once and does the work a
# table demands once per *distinct* row (:func:`distinct_rows`): a table of
# hundreds of addresses holds a few dozen rows, and a verdict on a row
# holds at every address that reads it.


def deliveries(
    nbrs: Mapping[Uid, Mapping[int, PortRef]],
    entries_by_uid: Mapping[Uid, RowMap],
    start_uid: Uid,
    start_port: int,
    address: int,
) -> Set[Tuple[Uid, int]]:
    """Every ``(switch, port)`` off the fabric -- a control processor, a
    host port or a dangling port -- that a packet for ``address`` entering
    ``start_uid`` on ``start_port`` can reach, over every alternative the
    tables offer; each ``(switch, in-port)`` state is expanded once."""
    delivered: Set[Tuple[Uid, int]] = set()
    seen: Set[Tuple[Uid, int]] = set()
    frontier = deque([(start_uid, start_port)])
    while frontier:
        state = frontier.popleft()
        if state in seen:
            continue
        seen.add(state)
        uid, in_port = state
        row = entries_by_uid.get(uid, {}).get(address)
        if row is None or row[in_port].is_discard:
            continue
        ports = nbrs.get(uid, {})
        for out_port in row[in_port].ports:
            far = None if out_port == CONTROL_PROCESSOR_PORT else ports.get(out_port)
            if far is not None:
                frontier.append((far.uid, far.port))
            else:
                # the control processor, a host port, or a dangling port:
                # delivery off the fabric
                delivered.add((uid, out_port))
    return delivered


def all_pairs_reachable(
    topology: TopologyMap, entries_by_uid: Mapping[Uid, RowMap]
) -> Dict[Tuple[Uid, Uid], bool]:
    """For every ordered switch pair (s, t): does a packet injected at s's
    control processor reach t's control processor?  Each (switch,
    in-port) state is expanded once, so the walk terminates on any
    tables; a forwarding loop is a cycle of switch-to-switch channels,
    which :func:`repro.analysis.deadlock.channel_dependency_graph` owns."""
    nbrs = topology.index().nbrs
    results: Dict[Tuple[Uid, Uid], bool] = {}
    for src in topology.switches:
        for dst in topology.switches:
            number = topology.numbers.get(dst)
            if number is None:
                continue
            address = make_short_address(number, CONTROL_PROCESSOR_PORT)
            delivered = deliveries(nbrs, entries_by_uid, src, CONTROL_PROCESSOR_PORT, address)
            results[(src, dst)] = (dst, CONTROL_PROCESSOR_PORT) in delivered
    return results


def check_no_down_to_up(
    topology: TopologyMap, entries_by_uid: Mapping[Uid, RowMap]
) -> None:
    """Raise AssertionError if any table entry forwards a packet that
    arrived on a down traversal back up (the rule of section 6.6.4)."""
    index = topology.index()
    up_end = index.up_end
    for uid, entries in entries_by_uid.items():
        # ports where we are the link's down end: a packet arriving there
        # has descended, and a packet sent there climbs
        down_ends = sorted(port for port in index.nbrs.get(uid, {}) if not up_end[(uid, port)])
        for address, row in distinct_rows(entries):
            for in_port in down_ends:
                for out_port in row[in_port].ports:
                    if out_port in down_ends:
                        raise AssertionError(
                            f"{uid}: entry (in={in_port}, addr={address:#x}) forwards "
                            f"a descended packet up via port {out_port}"
                        )


def links_used(
    topology: TopologyMap, entries_by_uid: Mapping[Uid, RowMap]
) -> Set[NetLink]:
    """The set of switch-to-switch links appearing in at least one entry.

    Up*/down* promises all non-loop links remain usable (section 4.2).
    """
    index = topology.index()
    used: Set[NetLink] = set()
    for uid, entries in entries_by_uid.items():
        nbrs = index.nbrs.get(uid, {})
        for _address, row in distinct_rows(entries):
            for out_port in {port for entry in row for port in entry.ports}:
                if out_port in nbrs:
                    used.add(NetLink(PortRef(uid, out_port), nbrs[out_port]))
    return used
