"""Up*/down* route computation and forwarding-table fill (section 6.6.4).

The spanning tree imposes a direction on every operational link: the "up"
end is the end closer to the root (ties broken by lower UID).  A legal
route traverses zero or more links up, then zero or more links down --
never up after down -- which makes the directed channel-dependency graph
acyclic and hence the network deadlock-free while still using every link.

Autopilot fills the tables with only the *minimum hop count* legal routes
(the paper's current version).  Because tables are indexed by the
receiving port as well as the destination, the up*/down* rule is enforced
locally: a packet that arrived over a "down" traversal gets only "down"
continuations, and entries that would violate the rule discard the packet
(protecting against corrupted short addresses).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.constants import (
    ADDR_BROADCAST_ALL,
    ADDR_BROADCAST_HOSTS,
    ADDR_BROADCAST_SWITCHES,
    CONTROL_PROCESSOR_PORT,
    PORTS_PER_SWITCH,
)
from repro.core.topo import TopologyMap
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry, Row
from repro.types import Uid, make_short_address

#: phases of a legal route: UP may still climb; DOWN must descend
UP, DOWN = 0, 1


# Interned forwarding entries keyed by (ports, broadcast).  ForwardingEntry
# is frozen, so sharing one instance across tables is safe; the cache stays
# small because real port vectors are short and heavily repeated (every
# switch's table reuses the same handful of vectors).  Pure value cache:
# hits and misses return equal objects, so determinism is unaffected --
# which is also why lru_cache (and not a module dict, see RS402) is the
# right shape for it.
@lru_cache(maxsize=None)
def _entry(ports: Tuple[int, ...], broadcast: bool = False) -> ForwardingEntry:
    if broadcast and not ports:
        # the shared discard singleton doubles as its own interned value
        return DISCARD_ENTRY
    return ForwardingEntry(ports, broadcast)


def own_rows(number: int, host_ports: Set[int]) -> Dict[int, Row]:
    """Rows for a switch's own addresses: whatever the receiving port,
    address q reaches the control processor (q = 0) or host port q, and
    the address of a port with no host on it discards."""
    width = PORTS_PER_SWITCH + 1
    base = make_short_address(number, 0)
    discard = (DISCARD_ENTRY,) * width
    delivers = {CONTROL_PROCESSOR_PORT} | host_ports
    return {
        base + q: (_entry((q,)),) * width if q in delivers else discard
        for q in range(width)
    }


def build_forwarding_entries(
    topology: TopologyMap,
    my_uid: Uid,
    my_host_ports: Optional[FrozenSet[int]] = None,
) -> Dict[int, Row]:
    """Compute one switch's forwarding table for the given configuration,
    as the table holds it: destination address -> row[receiving port].

    ``my_host_ports`` overrides the host-port set recorded in the topology
    (the local switch knows its own port states most currently).
    Rows cover every assignable short address in use plus the three
    broadcast addresses; everything else falls through to the table's
    default discard.  The port addresses of one destination switch share
    one row object.
    """
    me = topology.switches[my_uid]
    host_ports = set(my_host_ports if my_host_ports is not None else me.host_ports)
    in_ports = range(0, PORTS_PER_SWITCH + 1)
    index = topology.index()

    rows: Dict[int, Row] = {}

    # -- unicast rows to every switch's addresses ------------------------------------
    # arrival phase per receiving port: UP unless the packet descended to
    # get here (we are the link's down end).  Host/CP arrivals are UP.
    up_end = index.up_end
    nbr_ports = index.nbrs[my_uid]
    arrives_up = [
        i not in nbr_ports or up_end[(my_uid, i)] for i in in_ports
    ]
    for dest_uid in topology.switches:
        number = topology.numbers.get(dest_uid)
        if number is None:
            continue
        if dest_uid == my_uid:
            rows.update(own_rows(number, host_ports))
            continue
        ports_up, ports_down = index.next_hops(my_uid, dest_uid)
        entry_up = _entry(ports_up) if ports_up else DISCARD_ENTRY
        entry_down = _entry(ports_down) if ports_down else DISCARD_ENTRY
        row = tuple(entry_up if is_up else entry_down for is_up in arrives_up)
        # one validated address per destination; the per-port addresses
        # base..base+PORTS_PER_SWITCH are contiguous (port bits are the low bits)
        base = make_short_address(number, 0)
        for address in range(base, base + PORTS_PER_SWITCH + 1):
            rows[address] = row

    # -- broadcast flood rows (section 6.6.6) ------------------------------------------
    children = index.children[my_uid]
    is_root = topology.root == my_uid
    parent_port = me.parent_port

    up_sources = {CONTROL_PROCESSOR_PORT} | host_ports | set(children)
    for address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_SWITCHES, ADDR_BROADCAST_HOSTS):
        flood: Set[int] = set(children)
        if address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_HOSTS):
            flood |= host_ports
        if address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_SWITCHES):
            flood.add(CONTROL_PROCESSOR_PORT)
        down = _entry(tuple(sorted(flood)), broadcast=True)
        up = down if is_root else _entry((parent_port,), broadcast=True)
        # cross links and unused ports never carry broadcasts
        rows[address] = tuple(
            up if i in up_sources else down if i == parent_port else DISCARD_ENTRY
            for i in in_ports
        )

    return rows
