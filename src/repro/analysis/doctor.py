"""A network health report: the §7 "monitoring and management tools".

`diagnose` sweeps a live installation the way an operator's management
station would -- over SRP, which works even during reconfiguration -- and
cross-checks what the switches believe: every switch configured, and
those holding one topology view on one epoch; ports in expected
states; skeptics not holding links out of service; looped or reflecting
cables; congestion residue (FIFO backlogs, blocked transmitters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.explorer import NetworkExplorer
from repro.constants import PORTS_PER_SWITCH
from repro.core.portstate import PortState


@dataclass
class Finding:
    """One observation, ranked by severity."""

    severity: str  # "info" | "warning" | "critical"
    where: str
    what: str

    def __str__(self) -> str:
        return f"[{self.severity:<8}] {self.where}: {self.what}"


@dataclass
class HealthReport:
    """The doctor's verdict: findings plus sweep context."""

    findings: List[Finding] = field(default_factory=list)
    switches_seen: int = 0
    epoch: int = -1

    @property
    def healthy(self) -> bool:
        return not any(f.severity == "critical" for f in self.findings)

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def render(self) -> str:
        lines = [
            f"health report: {self.switches_seen} switches, epoch {self.epoch}, "
            f"{'HEALTHY' if self.healthy else 'PROBLEMS FOUND'}"
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)


def diagnose(network) -> HealthReport:
    """Sweep the network from its first live switch and report anomalies."""
    report = HealthReport()
    live = network.alive_autopilots()
    report.switches_seen = len(live)

    # 1. agreement: epoch, configuration, topology.  Section 6.6 configures
    # each physical partition as its own network with its own epoch, so
    # epochs are compared among the switches sharing one view.
    report.epoch = max((ap.epoch for ap in live), default=-1)
    epochs_by_view = {}
    for ap in live:
        topology = ap.engine.topology
        view = None if topology is None else frozenset(topology.switches)
        epochs_by_view.setdefault(view, set()).add(ap.epoch)
    for epochs in epochs_by_view.values():
        if len(epochs) > 1:
            report.findings.append(
                Finding("critical", "network", f"switches disagree on the epoch: {sorted(epochs)}")
            )
    for ap in live:
        if not (ap.configured and ap.engine.table_loaded):
            report.findings.append(
                Finding("critical", ap.switch.name, "not configured (reconfiguration in progress or stuck)")
            )
    views = set(epochs_by_view) - {None}
    if len(views) > 1:
        report.findings.append(
            Finding(
                "warning", "network",
                f"{len(views)} distinct topology views (partition or churn)",
            )
        )

    # 2. SRP sweep: does the recovered picture match the configured one?
    origin = next((i for i, ap in enumerate(network.autopilots) if ap.alive), 0)
    try:
        recovered = NetworkExplorer(network, origin=origin).explore()
        configured = network.autopilots[origin].engine.topology
        if configured is not None:
            missing = set(configured.switches) - set(recovered.topology.switches)
            extra = set(recovered.topology.switches) - set(configured.switches)
            if missing:
                report.findings.append(
                    Finding("critical", "srp-sweep", f"configured switches unreachable: {sorted(map(str, missing))}")
                )
            if extra:
                report.findings.append(
                    Finding("warning", "srp-sweep", f"switches present but not configured: {sorted(map(str, extra))}")
                )
            if recovered.topology.links != configured.links:
                report.findings.append(
                    Finding("warning", "srp-sweep", "live link set differs from the configured topology")
                )
    except RuntimeError as error:
        report.findings.append(Finding("critical", "srp-sweep", str(error)))

    # 3. per-port conditions
    for ap in live:
        for port in range(1, PORTS_PER_SWITCH + 1):
            unit = ap.switch.ports[port]
            if not unit.connected:
                continue
            monitor = ap.monitoring.ports[port]
            state = monitor.state
            where = f"{ap.switch.name}.p{port}"
            if state is PortState.SWITCH_LOOP:
                report.findings.append(
                    Finding("warning", where, "looped or reflecting cable (s.switch.loop)")
                )
            elif state is PortState.DEAD:
                hold = monitor.status_skeptic.hold_ns / 1e6
                severity = "warning" if monitor.status_skeptic.failures > 1 else "info"
                report.findings.append(
                    Finding(severity, where,
                            f"port dead ({monitor.status_skeptic.failures} failures, "
                            f"holding period {hold:.0f} ms)")
                )
            if monitor.conn_skeptic.required > monitor.conn_skeptic.base_required:
                report.findings.append(
                    Finding("warning", where,
                            f"connectivity skeptic elevated: needs "
                            f"{monitor.conn_skeptic.required} consecutive good probes")
                )
            backlog = unit.fifo.level
            if backlog > unit.fifo.stop_threshold:
                report.findings.append(
                    Finding("warning", where, f"receive FIFO backed up ({backlog:.0f} bytes)")
                )
    return report
