"""A network health report: the §7 "monitoring and management tools".

`diagnose` sweeps a live installation the way an operator's management
station would -- over SRP, which works even during reconfiguration -- and
cross-checks what the switches believe: every switch configured, on the
same epoch, holding the same topology and numbering; ports in expected
states; skeptics not holding links out of service; looped or reflecting
cables; congestion residue (FIFO backlogs, blocked transmitters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.explorer import NetworkExplorer
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

    def criticals(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "critical"]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def render(self) -> str:
        lines = [
            f"health report: {self.switches_seen} switches, epoch {self.epoch}, "
            f"{'HEALTHY' if self.healthy else 'PROBLEMS FOUND'}"
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)


def diagnose(network, origin: int = 0) -> HealthReport:
    """Sweep the network from one switch and report anomalies."""
    report = HealthReport()
    live = network.alive_autopilots()
    report.switches_seen = len(live)

    # 1. agreement: epoch, configuration, topology, numbering
    epochs = {ap.epoch for ap in live}
    report.epoch = max(epochs) if epochs else -1
    if len(epochs) > 1:
        report.findings.append(
            Finding("critical", "network", f"switches disagree on the epoch: {sorted(epochs)}")
        )
    for ap in live:
        if not (ap.configured and ap.engine.table_loaded):
            report.findings.append(
                Finding("critical", ap.switch.name, "not configured (reconfiguration in progress or stuck)")
            )
    views = {
        frozenset(ap.engine.topology.switches)
        for ap in live
        if ap.engine.topology is not None
    }
    if len(views) > 1:
        report.findings.append(
            Finding(
                "warning", "network",
                f"{len(views)} distinct topology views (partition or churn)",
            )
        )

    # 2. SRP sweep: does the recovered picture match the configured one?
    try:
        recovered = NetworkExplorer(network, origin=origin).explore()
        configured = live[origin].engine.topology if origin < len(live) else None
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
        for port in range(1, ap.switch.n_ports + 1):
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


def telemetry_dashboard(network) -> str:
    """Render ``network.telemetry()`` as an operator-facing text dashboard:
    the health report's quantitative sibling.  Covers the forwarding-plane
    counters, congestion residue (FIFO high-water, stop time), and the
    per-epoch reconfiguration spans with their blackout intervals."""
    snap = network.telemetry()
    lines = [f"telemetry @ {snap['time_ns'] / 1e9:.3f}s "
             f"({'enabled' if snap['enabled'] else 'DISABLED'})"]

    lines.append("")
    lines.append("  switch        fwd     disc   to-cp  resets  epochs(i/j)  term")
    for name, sw in snap["switches"].items():
        lines.append(
            f"  {name:<12} {sw['packets_forwarded']:>6} {sw['packets_discarded']:>8} "
            f"{sw['packets_to_cp']:>7} {sw['resets']:>7} "
            f"{sw['epochs_initiated']:>5}/{sw['epochs_joined']:<5} "
            f"{sw['terminations']:>4}"
        )

    port_rows = []
    for name, sw in snap["switches"].items():
        for p, port in sorted(sw["ports"].items()):
            interesting = (
                port["forwarded"] or port["dropped"]
                or port["stop_ns"] or port["fifo_highwater_bytes"] > 0
            )
            if interesting:
                drops = ",".join(f"{c}={n}" for c, n in sorted(port["dropped"].items()))
                port_rows.append(
                    f"  {name}.p{p:<3} fwd={port['forwarded']:<6} "
                    f"ct/buf={port['cut_through']}/{port['buffered']:<5} "
                    f"hw={port['fifo_highwater_bytes']:>6.0f}B "
                    f"stop={port['stop_ns'] / 1e6:>8.2f}ms"
                    + (f" drops[{drops}]" if drops else "")
                )
    if port_rows:
        lines.append("")
        lines.append("  port activity:")
        lines.extend(port_rows)

    holds = []
    for name, sw in snap["switches"].items():
        for p, skeptic in sorted(sw["skeptic_holds"].items()):
            holds.append(
                f"  {name}.p{p}: {skeptic['failures']} failures, "
                f"holding {skeptic['hold_ns'] / 1e6:.0f} ms, "
                f"needs {skeptic['probes_required']} good probes"
            )
    if holds:
        lines.append("")
        lines.append("  skeptic hold-downs:")
        lines.extend(holds)

    for span in snap.get("reconfigurations", []):
        lines.append("")
        header = f"  reconfiguration epoch {span['key']}:"
        if span["duration_ns"] is not None:
            header += f" {span['duration_ns'] / 1e6:.1f} ms"
        else:
            header += " (incomplete)"
        if span.get("max_blackout_ns") is not None:
            header += f", worst switch blackout {span['max_blackout_ns'] / 1e6:.1f} ms"
        lines.append(header)
        for ev in span["events"]:
            who = f" [{ev['component']}]" if ev.get("component") else ""
            lines.append(f"    {ev['t_ns'] / 1e6:>10.2f} ms  {ev['event']}{who}")
    unclosed = snap.get("unclosed_spans", 0)
    if unclosed:
        lines.append("")
        lines.append(f"  WARNING: {unclosed} reconfiguration span(s) never closed")

    if (
        getattr(network, "flight", None) is not None
        or getattr(network, "profiler", None) is not None
    ):
        lines.append("")
        lines.append(flight_report(network))
    if getattr(network, "sampler", None) is not None:
        lines.append("")
        lines.append(timeseries_report(network))
    if getattr(network, "inband", None) is not None:
        lines.append("")
        lines.append(path_report(network))
    if getattr(network, "control", None) is not None:
        lines.append("")
        lines.append(control_report(network))
    if getattr(network, "traffic", None) is not None:
        lines.append("")
        lines.append(traffic_report(network))
    return "\n".join(lines)


def flight_report(network, hotspot_limit: int = 8) -> str:
    """The ``flight`` section of the doctor's output: what the event-loop
    profiler and the flight recorder know about the last reconfiguration.

    Covers the slowest handler categories (when ``Network(...,
    profile=True)`` attached a profiler), ring-buffer drop counts, and
    the deepest retained causal chain of the last epoch -- the "story"
    a §6.7 merged log was read for, reconstructed mechanically.
    """
    from repro.obs.flight import render_chain

    lines = ["flight recorder:"]
    profiler = getattr(network, "profiler", None)
    recorder = getattr(network, "flight", None)
    if profiler is None and recorder is None:
        lines.append(
            "  off (build Network(flight=True, profile=True) to record)"
        )
        return "\n".join(lines)

    if profiler is not None:
        lines.append("")
        for line in profiler.render(limit=hotspot_limit).splitlines():
            lines.append(f"  {line}")

    if recorder is not None:
        lines.append("")
        lines.append(
            f"  {recorder.total_recorded} events recorded on "
            f"{len(recorder.components())} components, "
            f"{recorder.total_dropped} dropped"
        )
        for component, dropped in recorder.dropped_by_component().items():
            lines.append(f"    {component}: {dropped} oldest events evicted")
        chain = recorder.deepest_chain()
        if chain:
            epoch = chain[-1].attrs.get("epoch")
            lines.append("")
            lines.append(
                f"  deepest causal chain"
                + (f" (epoch {epoch})" if epoch is not None else "")
                + f", {len(chain)} events:"
            )
            for line in render_chain(chain).splitlines():
                lines.append(f"    {line}")
    return "\n".join(lines)


def timeseries_report(network, width: int = 32) -> str:
    """The ``timeseries`` section of the doctor's output: what the
    longitudinal sampler saw -- the watch dashboard's frame (per-switch
    port-state/FIFO sparklines, epoch, blackout flags) plus ring health
    (samples, series, drops).  Off unless the network was built with
    ``Network(timeseries=...)``."""
    from repro.obs.watch import render_frame

    sampler = getattr(network, "sampler", None)
    lines = ["timeseries:"]
    if sampler is None:
        lines.append("  off (build Network(timeseries=True) to sample)")
        return "\n".join(lines)
    doc = sampler.document()
    lines.append(
        f"  {doc['samples_taken']} samples every "
        f"{doc['interval_ns'] / 1e6:g} ms, {len(doc['series'])} series, "
        f"{doc['dropped_ticks']} ticks evicted, "
        f"{doc['dropped_series']} series refused"
    )
    lines.append("")
    frame = render_frame(sampler.view(), now_ns=network.sim.now, width=width)
    lines.extend(f"  {line}".rstrip() for line in frame.splitlines())
    return "\n".join(lines)


def path_report(network, width: int = 32, top: int = 6) -> str:
    """The ``path telemetry`` section of the doctor's output: what the
    in-band layer saw ride the data plane -- per-flow delivery p50/p99
    and detected path changes, the SLO drop ledger, per-epoch blackout
    windows, and the per-link congestion heat rows the watch dashboard
    shows.  Off unless the network was built with ``Network(inband=...)``."""
    from repro.obs.watch import congestion_rows

    inband = getattr(network, "inband", None)
    lines = ["path telemetry:"]
    if inband is None:
        lines.append("  off (build Network(inband=True) to stamp packets)")
        return "\n".join(lines)
    doc = inband.document()
    slo = doc["slo"]

    def fmt(value):
        return "-" if value is None else f"{value / 1e3:.1f}us"

    lines.append(
        f"  {doc['hops_recorded']} hop records, {slo['deliveries']} "
        f"deliveries, p50 {fmt(slo['p50_ns'])} p99 {fmt(slo['p99_ns'])}, "
        f"drops {sum(slo['drops'].values())}"
    )
    for flow in doc["flows"]:
        lines.append(
            f"    {flow['src_uid']:012x} -> {flow['dest_uid']:012x}: "
            f"{flow['deliveries']} delivered, "
            f"p50 {fmt(flow['latency_p50_ns'])} "
            f"p99 {fmt(flow['latency_p99_ns'])}, "
            f"{flow['paths_seen']} path(s), {len(flow['changes'])} change(s)"
        )
    for window in slo["windows"]:
        if window["max_blackout_ns"] is None:
            continue
        lines.append(
            f"    epoch {window['epoch']} blackout "
            f"{window['max_blackout_ns'] / 1e6:.1f} ms: "
            f"{window['deliveries']} delivered, {window['drops']} dropped"
        )
    heat = congestion_rows(doc, width=width, top=top)
    if heat:
        lines.append("")
        lines.extend(f"  {row}".rstrip() for row in heat)
    return "\n".join(lines)


def control_report(network) -> str:
    """The ``control plane`` section of the doctor's output: what
    reconfiguration itself cost -- control-packet volume by message type
    and phase (election / loading / steady), retransmissions, and the
    per-epoch slices.  Off unless the network was built with
    ``Network(control=True)``."""
    acct = getattr(network, "control", None)
    lines = ["control plane:"]
    if acct is None:
        lines.append("  off (build Network(control=True) to count)")
        return "\n".join(lines)
    summary = acct.summary()
    lines.append(
        f"  {summary['packets']} control packets, "
        f"{summary['bytes'] / 1024:.1f} KiB, "
        f"{summary['retransmissions']} retransmitted"
    )
    for phase, cell in summary["by_phase"].items():
        lines.append(
            f"    {phase:<9} {cell['packets']:>6} pkts "
            f"{cell['bytes'] / 1024:>8.1f} KiB"
        )
    for msg_type, cell in summary["by_type"].items():
        lines.append(
            f"    {msg_type:<18} {cell['packets']:>6} pkts "
            f"{cell['bytes'] / 1024:>8.1f} KiB"
        )
    for epoch, cell in summary["epochs"].items():
        lines.append(
            f"    epoch {epoch}: {cell['packets']} pkts "
            f"{cell['bytes'] / 1024:.1f} KiB, {cell['retransmissions']} retx"
        )
    if summary["srp"]:
        srp = ", ".join(f"{k}={v}" for k, v in summary["srp"].items())
        lines.append(f"    srp: {srp}")
    return "\n".join(lines)


def traffic_report(network) -> str:
    """The ``traffic SLO`` section of the doctor's output: what the
    workload experienced -- flow states, delivery-latency quantiles,
    goodput, drops by cause, and the blackout cost of each
    reconfiguration window.  Off unless the network was built with
    ``Network(traffic=...)``."""
    lines = ["traffic SLO:"]
    if getattr(network, "traffic", None) is None:
        lines.append("  off (build Network(traffic=...) to run a workload)")
        return "\n".join(lines)
    from repro.traffic.__main__ import render_report

    report = render_report(network.traffic_doc())
    lines.extend(f"  {line}" for line in report.splitlines())
    return "\n".join(lines)


def sweep_report(doc) -> str:
    """The ``sweep`` section of the doctor's output: the scaling curves
    of a ``repro.obs.sweep/1`` artifact -- one row per topology rung and
    the fitted log-log exponents.  Takes the document (sweeps span many
    networks, so there is no live network to inspect)."""
    from repro.obs.artifact import validate
    from repro.obs.sweep import SWEEP_SCHEMA, render_sweep

    return render_sweep(validate(doc, SWEEP_SCHEMA))


def staticcheck_report(roots=("src",), baseline_path=None) -> str:
    """The ``staticcheck`` section of the doctor's output: does the tree
    still honor the determinism / purity / observability / hygiene /
    dataflow disciplines (``RS1xx``-``RS6xx``)?  Runs the same suite as
    the CI gate and renders what its CLI prints, indented."""
    from pathlib import Path
    from textwrap import indent

    from repro.staticcheck import Baseline, find_default_baseline, render_text, run_suite

    existing = [Path(r) for r in roots if Path(r).exists()]
    if not existing:
        return f"staticcheck:\n  (no scan roots found among {', '.join(map(str, roots))})"
    if baseline_path is None:
        baseline_path = find_default_baseline(existing[0])
    baseline = Baseline.load(baseline_path) if baseline_path else None
    return "staticcheck:\n" + indent(render_text(run_suite(existing, baseline=baseline)), "  ")


def campaign_report(doc) -> str:
    """Render a chaos-campaign ``repro.bench/1`` document as a text report.

    The campaign runner (:mod:`repro.chaos.campaign`) emits two result
    tables -- the aggregate counters and the failing schedules.  This
    formats both for terminals and CI logs.
    """
    by_name = {r["name"]: r for r in doc.get("results", [])}
    lines = [f"chaos campaign: {doc.get('title', '')} (seed={doc.get('seed')})"]

    campaign = by_name.get("campaign")
    if campaign and campaign["rows"]:
        row = dict(zip(campaign["headers"], campaign["rows"][0]))
        verdict = "PASS" if not row.get("failed") else "FAIL"
        lines.append(
            f"  {verdict}: {row.get('passed')}/{row.get('schedules')} schedules "
            f"passed on {row.get('topology')}, "
            f"{row.get('faults_injected')} faults injected, "
            f"{row.get('checks_run')} invariant checks, "
            f"{row.get('violations')} violations"
        )
        telemetry = campaign.get("telemetry") or {}
        faults = telemetry.get("faults_by_kind") or {}
        if faults:
            mix = ", ".join(f"{k}={v}" for k, v in sorted(faults.items()))
            lines.append(f"  fault mix: {mix}")
        checks = telemetry.get("checks_by_kind") or {}
        if checks:
            mix = ", ".join(f"{k}={v}" for k, v in sorted(checks.items()))
            lines.append(f"  checks:    {mix}")
        if telemetry.get("sim_ns_total") is not None:
            lines.append(
                f"  simulated: {telemetry['sim_ns_total'] / 1e9:.1f}s across "
                f"{telemetry.get('epochs_total', 0)} reconfiguration epochs"
            )

    failures = by_name.get("failures")
    if failures and failures["rows"]:
        lines.append("")
        lines.append("  failing schedules:")
        for row in failures["rows"]:
            named = dict(zip(failures["headers"], row))
            lines.append(
                f"    {named.get('schedule')}: seed={named.get('seed')} "
                f"events={named.get('events')} faults={named.get('faults')}"
            )
            for violation in str(named.get("violations", "")).split("; "):
                if violation:
                    lines.append(f"      - {violation}")
    return "\n".join(lines)
