"""The section 6.6 invariants: what a configured Autonet must satisfy.

* **Table walks** (section 6.6.4), symbolic over the loaded tables: every
  switch reaches every other, no entry forwards a descended packet back
  up (the up*/down* rule), and all links stay usable (section 4.2).
* **Deadlock freedom** (section 3.6): with flow-controlled FIFOs and no
  discard, routes can deadlock iff their *channel dependency graph* has a
  cycle -- nodes are directed link channels, with an edge c1 -> c2
  whenever a packet can occupy c1 while waiting for c2.  Up*/down*'s link
  orientation makes it acyclic; shortest-path routing generally does not
  (the E11 ablation bench).  A forwarding loop is such a cycle, so the
  table walks expand each state once and do not look for one.
* **At quiescence** (:func:`quiescent_checks`, the one call a chaos
  campaign makes at a settled point): every live switch's configured view
  equals its physical component (each partition is its own network, and
  no stale view or revived epoch naming dead switches survives); the
  routing invariants hold in every configured partition; and no stalled
  epoch leaves its span open.  These return
  violations as strings, so a campaign can tally them and hand failing
  schedules to the shrinker.

Each sweep fetches ``topology.index()`` once and does a table's work once
per *distinct* row (:func:`distinct_rows`): hundreds of addresses share a
few dozen rows, and a verdict on a row holds at every address reading it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.constants import CONTROL_PROCESSOR_PORT
from repro.core.topo import NetLink, PortRef, TopologyMap
from repro.net.forwarding import RowMap, distinct_rows
from repro.types import Uid, make_short_address

#: a channel: bytes flowing from one switch port into a neighbor's port
Channel = Tuple[PortRef, PortRef]

#: the dependency graph: channel -> the channels a packet on it may wait for
ChannelGraph = Dict[Channel, Set[Channel]]


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
    control processor reach t's control processor?"""
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
    """The set of switch-to-switch links appearing in at least one entry."""
    index = topology.index()
    used: Set[NetLink] = set()
    for uid, entries in entries_by_uid.items():
        nbrs = index.nbrs.get(uid, {})
        for _address, row in distinct_rows(entries):
            for out_port in {port for entry in row for port in entry.ports}:
                if out_port in nbrs:
                    used.add(NetLink(PortRef(uid, out_port), nbrs[out_port]))
    return used


def channel_dependency_graph(
    topology: TopologyMap, entries_by_uid: Mapping[Uid, RowMap]
) -> ChannelGraph:
    """The channel dependency graph induced by the loaded tables.  Only
    switch-to-switch channels are modeled: channels to and from hosts are
    sources and sinks and cannot sit on a cycle."""
    index = topology.index()
    graph: ChannelGraph = {
        (PortRef(uid, port), far): set()
        for uid, ports in index.nbrs.items()
        for port, far in ports.items()
    }
    for uid, rows in entries_by_uid.items():
        nbrs = index.nbrs.get(uid, {})
        # packets from hosts/CP start chains, no upstream hold: only the
        # receiving ports with a switch behind them have a channel to extend
        held = [(port, graph[(sender, PortRef(uid, port))]) for port, sender in nbrs.items()]
        # a host or the CP ends the chain: only link ports continue it
        onward = {port: (PortRef(uid, port), far) for port, far in nbrs.items()}
        # every address sharing a row induces the same dependencies
        for _address, row in distinct_rows(rows):
            for in_port, waits_for in held:
                for out_port in row[in_port].ports:
                    if out_port in onward:
                        waits_for.add(onward[out_port])
    return graph


def is_acyclic(graph: Mapping[Channel, Set[Channel]]) -> bool:
    """Kahn's test: peel off nodes nothing points at until none is left;
    whatever remains sits on or behind a cycle.  Every successor must
    itself be a key of ``graph``."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    ready = [node for node, count in indegree.items() if not count]
    peeled = 0
    while ready:
        peeled += 1
        for node in graph[ready.pop()]:
            indegree[node] -= 1
            if not indegree[node]:
                ready.append(node)
    return peeled == len(graph)


@dataclass
class CheckReport:
    """Outcome of one quiescent-point sweep."""

    checks_run: Counter = field(default_factory=Counter)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def ran(self, kind: str) -> None:
        self.checks_run[kind] += 1

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def merge(self, other: "CheckReport") -> None:
        self.checks_run.update(other.checks_run)
        self.violations.extend(other.violations)


def check_oracle_agreement(network) -> CheckReport:
    """Every live switch's configured view == its physical component."""
    report = CheckReport()
    report.ran("oracle-agreement")
    oracle = {}
    for component in network.operational_components():
        members = frozenset(network.spec.uids[i] for i in component)
        for index in component:
            oracle[network.spec.uids[index]] = members
    for i, ap in enumerate(network.autopilots):
        if not ap.alive:
            continue
        if not (ap.configured and ap.engine.table_loaded):
            report.fail(f"sw{i}: not configured at quiescence")
            continue
        if ap.engine.topology is None:
            report.fail(f"sw{i}: configured without a topology")
            continue
        view = frozenset(ap.engine.topology.switches)
        expected = oracle.get(ap.uid, frozenset([ap.uid]))
        if view != expected:
            missing = sorted(str(u) for u in expected - view)
            extra = sorted(str(u) for u in view - expected)
            report.fail(
                f"sw{i}: view of {len(view)} switches != physical component "
                f"of {len(expected)} (missing={missing}, extra={extra})"
            )
    return report


def check_partition_routing(network) -> CheckReport:
    """Reachability, the up*/down* rule and deadlock freedom on every
    configured partition."""
    report = CheckReport()
    index_of = {uid: i for i, uid in enumerate(network.spec.uids)}
    partitions: Dict[frozenset, TopologyMap] = {}
    for ap in network.alive_autopilots():
        if ap.configured and ap.engine.table_loaded and ap.engine.topology:
            partitions.setdefault(frozenset(ap.engine.topology.switches), ap.engine.topology)
    tables: Dict[Uid, RowMap] = {}  # one copy of each switch's table per sweep
    for members, topology in sorted(partitions.items(), key=lambda kv: min(kv[0])):
        label = f"partition[{min(members)}]({len(members)} switches)"
        entries = {}
        for uid in members:
            index = index_of.get(uid)
            if index is None:
                continue  # foreign uid in view: oracle check reports it
            if uid not in tables:
                tables[uid] = network.switches[index].table.non_constant_rows()
            entries[uid] = tables[uid]

        report.ran("reachability")
        reachable = all_pairs_reachable(topology, entries)
        unreachable = sorted(f"{s}->{t}" for (s, t), ok in reachable.items() if not ok)
        if unreachable:
            report.fail(
                f"{label}: {len(unreachable)} unreachable pairs, "
                f"e.g. {unreachable[:3]}"
            )

        report.ran("no-down-to-up")
        try:
            check_no_down_to_up(topology, entries)
        except AssertionError as error:
            report.fail(f"{label}: up/down rule violated: {error}")

        report.ran("deadlock-freedom")
        if not is_acyclic(channel_dependency_graph(topology, entries)):
            report.fail(f"{label}: channel dependency graph has a cycle")
    return report


def check_spans(network) -> CheckReport:
    """A stalled reconfiguration must not hide behind a closed shutter.

    Superseded epochs legitimately leave open spans behind (a preempting
    epoch re-closes every switch, so the old span's shutters never all
    reopen).  Epoch numbers also collide across partitions -- the tracer
    keys spans by epoch alone, so a split network can pin one side's
    span open with the other side's abandoned shutter even though both
    sides configured fine.  The genuine stall signal is therefore an
    open span at an epoch where some *alive, unconfigured* autopilot is
    still sitting at quiescence.
    """
    report = CheckReport()
    report.ran("span-hygiene")
    tracer = network.tracer
    if tracer is None:
        return report
    stalled_epochs = {
        ap.epoch for ap in network.alive_autopilots() if not ap.engine.configured
    }
    for span in tracer.open_spans():
        if span.key in stalled_epochs:
            report.fail(f"reconfiguration span for current epoch {span.key} never closed")
    return report


def quiescent_checks(network) -> CheckReport:
    """The full sweep: oracle agreement, routing and span hygiene."""
    report = check_oracle_agreement(network)
    report.merge(check_partition_routing(network))
    report.merge(check_spans(network))
    return report
