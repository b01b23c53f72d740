"""Quiescent-point invariant checks for chaos campaigns.

After a network settles, three families of properties must hold
regardless of the fault history that got it there:

* **Oracle agreement** (section 6.6): the set of switches each live
  Autopilot has configured equals the physically reachable component
  containing it -- physical partitions become separate configured
  networks, and nothing less (a stale or self-invented configuration)
  or more (a revived epoch naming dead switches) survives.
* **Routing invariants** (section 6.6.4): within every configured
  partition, the loaded forwarding tables reach all pairs, never forward
  a descended packet back up, and induce an acyclic channel-dependency
  graph (deadlock freedom, section 3.6).
* **Span hygiene** (repro.obs): the current epoch's reconfiguration span
  is closed -- an unclosed current span is a protocol stall even when the
  tables happen to look right.

Each check returns violations as strings rather than raising, so a
campaign can tally them, decide severity, and hand failing schedules to
the shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.deadlock import channel_dependency_graph, is_acyclic
from repro.analysis.invariants import all_pairs_reachable, check_no_down_to_up


@dataclass
class CheckReport:
    """Outcome of one quiescent-point sweep."""

    checks_run: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def ran(self, kind: str) -> None:
        self.checks_run[kind] = self.checks_run.get(kind, 0) + 1

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def merge(self, other: "CheckReport") -> None:
        for kind, count in other.checks_run.items():
            self.checks_run[kind] = self.checks_run.get(kind, 0) + count
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
    """Section 6.6 routing invariants on every configured partition."""
    report = CheckReport()
    index_of = {uid: i for i, uid in enumerate(network.spec.uids)}
    partitions: Dict[frozenset, object] = {}
    for ap in network.alive_autopilots():
        if ap.configured and ap.engine.table_loaded and ap.engine.topology:
            partitions.setdefault(frozenset(ap.engine.topology.switches), ap.engine.topology)
    tables: Dict[object, dict] = {}  # one copy of each switch's table per sweep
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

        # a forwarding loop is a cycle of channels: deadlock-freedom reports it
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
    """The full sweep: oracle agreement, routing, span hygiene."""
    report = CheckReport()
    report.merge(check_oracle_agreement(network))
    report.merge(check_partition_routing(network))
    report.merge(check_spans(network))
    return report
