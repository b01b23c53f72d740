"""An installation-planning recipe (section 7's future work).

The paper closes by asking for "simple recipes... for designing the
topology of the physical configuration": given a host count, site
personnel need the number of switches, the switch-to-switch pattern, and
host port assignments that meet Autonet's availability goal -- *no
failure of a single network component disconnects any host* (section
3.9).

:func:`plan_installation` implements the recipe the SRC LAN itself
follows: a torus of switches (every switch keeps four ports for trunks,
eight for hosts), each host dual-homed to two *different* switches, and
a verification pass proving the plan: the trunk graph is 2-connected
(any single switch or trunk may fail) and every host's two attachment
switches are distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.constants import PORTS_PER_SWITCH
from repro.topology.generators import TopologySpec, torus
from repro.topology.graph import components, cut_points_and_bridges, diameter, spec_graph
from repro.types import MAX_SWITCH_NUMBER


@dataclass
class InstallationPlan:
    """A planned physical configuration."""

    spec: TopologySpec
    #: host name -> [(switch index, port), (switch index, port)]
    host_attachments: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    hosts_per_switch: int = 8
    notes: List[str] = field(default_factory=list)

    @property
    def n_switches(self) -> int:
        return self.spec.n_switches

    @property
    def n_hosts(self) -> int:
        return len(self.host_attachments)

    def host_capacity(self) -> int:
        """Dual-connected hosts this installation can still absorb."""
        return (self.n_switches * self.hosts_per_switch) // 2 - self.n_hosts

    def verify(self) -> List[str]:
        """Check the availability goal; returns a list of violations."""
        problems = []
        g = spec_graph(self.spec)
        cuts, bridges = cut_points_and_bridges(g) if self.n_switches > 2 else ([], [])
        if len(components(g)) > 1:
            problems.append("trunk graph is not connected")
        elif cuts:
            problems.append(f"single switch failures disconnect: {cuts}")
        if bridges:
            problems.append(f"single trunk failures disconnect: {bridges}")
        seen_ports: set = set()
        for host, attachments in self.host_attachments.items():
            if len(attachments) == 2 and attachments[0][0] == attachments[1][0]:
                problems.append(f"{host}: both ports on the same switch")
            for sw, port in attachments:
                if (sw, port) in seen_ports:
                    problems.append(f"port sw{sw}.p{port} assigned twice")
                seen_ports.add((sw, port))
        return problems

    def summary(self) -> str:
        lines = [
            f"installation plan: {self.spec.name}",
            f"  switches           : {self.n_switches}",
            f"  trunk links        : {len(self.spec.cables)}",
            f"  dual-homed hosts   : {self.n_hosts}",
            f"  spare host capacity: {self.host_capacity()}",
            f"  trunk diameter     : {diameter(spec_graph(self.spec))}",
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def plan_installation(
    n_hosts: int,
    hosts_per_switch: int = 8,
) -> InstallationPlan:
    """The SRC recipe: a torus sized for the host population.

    Each dual-homed host consumes two host ports on different switches;
    with ``hosts_per_switch`` host ports per switch, N switches carry
    N * hosts_per_switch / 2 hosts.  The torus is kept as square as
    possible (short diameter => fast reconfiguration, section 6.6.5), and
    within the 126 switch numbers of one Autonet's short-address space.
    """
    if n_hosts < 1:
        raise ValueError("plan at least one host")
    if not 1 <= hosts_per_switch <= PORTS_PER_SWITCH - 2:
        raise ValueError("each switch needs at least two trunk ports")

    needed = max(2, math.ceil(2 * n_hosts / hosts_per_switch))
    if needed > MAX_SWITCH_NUMBER:
        raise ValueError(
            f"{n_hosts} dual-homed hosts need {needed} switches, exceeding "
            f"the limit of {MAX_SWITCH_NUMBER}; partition the installation"
        )
    # squarest torus with at least `needed` switches that still fits the
    # switch-number space (a squarer torus has a shorter diameter, hence
    # faster reconfiguration, section 6.6.5)
    candidates = []
    for rows in range(2, needed + 1):
        cols = max(2, math.ceil(needed / rows))
        total = rows * cols
        if total <= MAX_SWITCH_NUMBER:
            candidates.append((abs(rows - cols), total, rows, cols))
    if not candidates:
        raise ValueError(
            f"no torus of <= {MAX_SWITCH_NUMBER} switches carries {n_hosts} hosts"
        )
    _sq, _total, rows, cols = min(candidates)
    spec = torus(rows, cols)
    spec.name = f"planned-torus-{rows}x{cols}"

    plan = InstallationPlan(spec=spec, hosts_per_switch=hosts_per_switch)
    plan.notes.append(
        f"{rows}x{cols} torus: 4 trunk ports per switch, "
        f"{hosts_per_switch} host ports"
    )

    # round-robin hosts across switch pairs so the two attachments always
    # land on different (adjacent) switches
    n_switches = spec.n_switches
    next_port = {
        i: iter(spec.free_ports(i)[:hosts_per_switch]) for i in range(n_switches)
    }
    for h in range(n_hosts):
        primary = h % n_switches
        alternate = (primary + 1) % n_switches
        try:
            attachments = [
                (primary, next(next_port[primary])),
                (alternate, next(next_port[alternate])),
            ]
        except StopIteration:
            raise ValueError(
                f"host population {n_hosts} exceeds capacity of the "
                f"{rows}x{cols} torus"
            ) from None
        plan.host_attachments[f"host{h}"] = attachments
    return plan
