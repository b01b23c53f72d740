"""The flow-level fluid model: paths from live forwarding tables,
max-min fair rate shares, piecewise-constant integration.

Per ROADMAP item 3 the engine never simulates a data packet for large
workloads: between re-solve events every flow transfers at a constant
rate, so a thousand-flow workload costs a handful of events per epoch
rather than millions.  The two primitives here are pure functions over
the live network state:

* :func:`walk_path` follows the loaded up*/down* forwarding tables from
  a flow's source switch toward its destination's short address exactly
  as a packet would, taking the lowest-numbered port of each multipath
  entry (the deterministic stand-in for the hardware's random pick).  A
  DISCARD entry, a cut or reflecting cable, a dead switch, or a
  transient loop all mean *no route* -- which is precisely the blackout
  the observatory prices.
* :func:`solve_rates` water-fills link capacity (1 byte per
  ``BYTE_TIME_NS``) max-min fairly across the routed flows.

Both are recomputed only when something they depend on changes: a
forwarding-table ``generation`` bump, a fault, a flow arrival or
completion (see :class:`repro.traffic.engine.TrafficEngine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.constants import BYTE_TIME_NS
from repro.net.link import LinkState

#: fluid link capacity in bytes per nanosecond (3.125 MB/s per §2 link
#: pair is the paper's hardware; the simulator's links move one byte per
#: BYTE_TIME_NS, so the fluid model matches the packet simulation)
LINK_CAPACITY = 1.0 / BYTE_TIME_NS

#: a flow's path: canonical link keys ((switch index, port) of the
#: lower-indexed end), empty tuple for same-switch delivery
PathKey = Tuple[Tuple[int, int], ...]


def port_owner_map(network) -> Dict[int, Tuple[int, int]]:
    """``id(link unit) -> (switch index, port)`` for every switch port.

    Port objects survive switch power cycles, so this map is computed
    once per engine and stays valid across crash/restart faults.
    """
    out: Dict[int, Tuple[int, int]] = {}
    for i, switch in enumerate(network.switches):
        for p, unit in switch.ports.items():
            out[id(unit)] = (i, p)
    return out


def walk_path(
    network,
    owners: Dict[int, Tuple[int, int]],
    src_switch: int,
    dst_switch: int,
    max_hops: int = 64,
) -> Optional[PathKey]:
    """The link sequence a packet from ``src_switch`` to ``dst_switch``
    would traverse right now, or None when the tables cannot deliver it."""
    from repro.constants import CONTROL_PROCESSOR_PORT

    if not network.autopilots[src_switch].alive:
        return None
    if src_switch == dst_switch:
        return ()
    address = network.short_address_of(dst_switch, CONTROL_PROCESSOR_PORT)
    if address is None:
        return None  # destination not configured: nothing routes to it
    sw = src_switch
    in_port = CONTROL_PROCESSOR_PORT
    links: List[Tuple[int, int]] = []
    for _ in range(max_hops):
        if sw == dst_switch:
            return tuple(links)
        if not network.autopilots[sw].alive:
            return None
        entry = network.switches[sw].table.lookup(in_port, address)
        if entry.is_discard or not entry.ports:
            return None
        out = entry.ports[0]
        if out == CONTROL_PROCESSOR_PORT:
            return None  # delivered to the wrong switch's CP
        link = network.links.get((sw, out))
        if link is None or link.state is not LinkState.UP:
            return None  # table still points at a dead cable: blackout
        far = link.other(network.switches[sw].ports[out])
        owner = owners.get(id(far))
        if owner is None:
            return None  # host port: not a transit hop
        links.append((min((sw, out), owner)))
        sw, in_port = owner
    return None  # loop or absurdly long path: treat as unrouted


def solve_rates(
    paths: Dict[int, PathKey],
    capacity: float = LINK_CAPACITY,
) -> Dict[int, float]:
    """Max-min fair rates (bytes/ns) for ``flow_id -> path``.

    Classic progressive filling: repeatedly find the tightest link
    (least remaining capacity per unfixed flow), freeze its flows at
    that fair share, and subtract.  Same-switch flows (empty path) run
    at access line rate.
    """
    rates: Dict[int, float] = {}
    link_flows: Dict[Tuple[int, int], List[int]] = {}
    for fid, path in paths.items():
        if not path:
            rates[fid] = capacity
            continue
        for key in path:
            link_flows.setdefault(key, []).append(fid)
    remaining = {key: capacity for key in link_flows}
    unfixed = {key: len(flows) for key, flows in link_flows.items()}
    pending = {fid for fid, path in paths.items() if path}
    while pending:
        bottleneck = None
        share = None
        for key, count in unfixed.items():
            if count <= 0:
                continue
            s = remaining[key] / count
            if share is None or s < share or (s == share and key < bottleneck):
                bottleneck, share = key, s
        if bottleneck is None:
            break
        for fid in link_flows[bottleneck]:
            if fid not in pending:
                continue
            rates[fid] = share
            pending.discard(fid)
            for key in paths[fid]:
                remaining[key] -= share
                unfixed[key] -= 1
    return rates


def total_generation(network) -> Tuple[int, ...]:
    """A cheap fingerprint of the forwarding state: every table's
    ``generation`` counter (bumped on each load/clear)."""
    return tuple(switch.table.generation for switch in network.switches)
