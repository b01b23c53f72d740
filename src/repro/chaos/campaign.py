"""The seeded chaos campaign runner.

A campaign samples ``n`` random fault schedules from one master seed,
runs each against a fresh simulated installation of the configured
topology, and sweeps the :mod:`repro.analysis.invariants` at every
quiescent point: the routing ones mid-run whenever the installation
re-converges between faults, and ``quiescent_checks`` in full (oracle
included) once the schedule's horizon has passed and the network settled.

Seeding discipline: the campaign owns one :class:`~repro.sim.rng.
RngRegistry`; each schedule's sampler draws from a ``fork`` of it and
each Network gets a ``child_seed`` of it, so schedule ``i`` of campaign
seed ``s`` is always the same run -- independent of how many schedules
came before it failed or of anything the checks did.

The summary exports through the standard ``repro.bench/1`` schema (no
wall-clock anywhere in the document, so CI can diff two runs
byte-for-byte).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.invariants import check_partition_routing, quiescent_checks
from repro.chaos.schedule import SEC, Injector, Schedule, ScheduleSampler
from repro.network import Network
from repro.obs.export import bench_document, bench_result
from repro.sim.rng import RngRegistry
from repro.topology.generators import resolve_topology

MS = 1_000_000

#: hosts attached to free ports before each schedule runs
HOSTS = 2
#: extra settling time after the schedule horizon before final checks
DRAIN_NS = 500 * MS
#: poll step while running out a schedule
STEP_NS = 50 * MS


@dataclass
class CampaignConfig:
    """Everything that determines a campaign, and nothing else."""

    topology: str = "torus-3x4"
    schedules: int = 50
    seed: int = 0


@dataclass
class ScheduleResult:
    """What one schedule did to one installation."""

    name: str
    schedule: Schedule
    converged: bool = False
    sim_ns: int = 0
    epochs: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    checks_run: Counter = field(default_factory=Counter)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.converged and not self.violations

    @property
    def faults(self) -> int:
        return sum(self.injected.values())


class CampaignRunner:
    """Samples, runs, and checks fault schedules; accumulates a report."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.spec = resolve_topology(config.topology)
        self.registry = RngRegistry(config.seed)
        self.results: List[ScheduleResult] = []

    # -- building one installation ---------------------------------------------------

    def _host_plan(self) -> List[tuple]:
        """Deterministic host attachment points on free ports."""
        plan = []
        spec = self.spec
        for h in range(HOSTS):
            sw = (h * 2) % spec.n_switches
            free = spec.free_ports(sw)
            if not free:
                continue
            plan.append((f"h{h}", [(sw, free[h % len(free)])]))
        return plan

    def build_network(self, schedule: Schedule, **observers) -> Network:
        """A fresh installation for one schedule; ``observers`` are
        ``Network`` keywords (``flight=``, ``timeseries=``, ``inband=``,
        ``traffic=`` ...)."""
        network = Network(self.spec, seed=schedule.seed, telemetry=True, **observers)
        for name, attachments in self._host_plan():
            network.add_host(name, attachments)
        return network

    # -- running one schedule --------------------------------------------------------

    def run_schedule(
        self, schedule: Schedule, name: str = "", artifacts: Optional[str] = None
    ) -> ScheduleResult:
        """Run one schedule.

        ``artifacts`` names a directory: the run then records with the
        flight recorder, the longitudinal sampler, in-band telemetry and
        the default workload -- all observational, so the run and what it
        checks are those of the same call without ``artifacts`` -- and
        afterwards leaves ``<name>.trace.json``,
        ``<name>.timeseries.json``, ``<name>.inband.json`` and
        ``<name>.traffic.json`` there."""
        result = ScheduleResult(name=name or schedule.name, schedule=schedule)
        recording = artifacts is not None
        network = self.build_network(
            schedule, flight=recording, timeseries=recording, inband=recording,
            traffic=True if recording else None,
        )
        try:
            return self._run_schedule(network, schedule, result)
        finally:
            if artifacts is not None:
                network.export_observers(os.path.join(artifacts, result.name))

    def _run_schedule(
        self, network: Network, schedule: Schedule, result: ScheduleResult
    ) -> ScheduleResult:
        # liveness: base + per-switch, covering worst-case skeptic hold-downs
        deadline = 20 * SEC + self.spec.n_switches * SEC

        if not network.run_until_converged(timeout_ns=deadline):
            result.violations.append("initial convergence never reached")
            result.sim_ns = network.sim.now
            return result

        if network.traffic is not None and not network.traffic.launched:
            network.traffic.launch()

        injector = Injector(network, schedule)
        base = network.sim.now
        injector.arm(base)

        # run out the schedule, sweeping routing invariants whenever the
        # installation re-converges between faults (a quiescent point)
        horizon = base + schedule.horizon_ns + DRAIN_NS
        was_converged = True
        while network.sim.now < horizon:
            network.sim.run_for(STEP_NS)
            now_converged = network.converged()
            if now_converged and not was_converged:
                report = check_partition_routing(network)
                result.checks_run.update(report.checks_run)
                result.violations.extend(
                    f"mid-run@{network.sim.now - base}ns: {v}" for v in report.violations
                )
            was_converged = now_converged

        # final quiescence: liveness within the distance-scaled deadline
        result.converged = network.run_until_converged(timeout_ns=deadline)
        if not result.converged:
            result.violations.append(f"no convergence within {deadline / 1e9:.0f}s of schedule end")
        else:
            report = quiescent_checks(network)
            result.checks_run.update(report.checks_run)
            result.violations.extend(report.violations)

        result.sim_ns = network.sim.now
        result.injected = dict(network.faults)
        if network.tracer is not None:
            result.epochs = len(network.tracer.epochs())
        return result

    # -- the campaign ----------------------------------------------------------------

    def sample_schedule(self, index: int) -> Schedule:
        sampler = ScheduleSampler(
            self.spec,
            self.registry.fork(f"sample/{index}").stream("events"),
            host_names=tuple(name for name, _ in self._host_plan()),
        )
        schedule = sampler.sample(name=f"schedule-{index:04d}")
        schedule.seed = self.registry.child_seed(f"net/{index}")
        return schedule

    def run(
        self, progress: Optional[Callable[[ScheduleResult], None]] = None
    ) -> List[ScheduleResult]:
        self.results = []
        for index in range(self.config.schedules):
            schedule = self.sample_schedule(index)
            result = self.run_schedule(schedule)
            self.results.append(result)
            if progress is not None:
                progress(result)
        return self.results

    @property
    def failures(self) -> List[ScheduleResult]:
        return [r for r in self.results if not r.passed]

    # -- export ----------------------------------------------------------------------

    def document(self) -> Dict:
        """The campaign summary as a ``repro.bench/1`` document.

        Deterministic by construction: simulated time only, iteration
        over sorted keys, no environment leakage.
        """
        config = self.config
        faults: Counter = Counter()
        checks: Counter = Counter()
        for r in self.results:
            faults.update(r.injected)
            checks.update(r.checks_run)
        failed = self.failures
        row = [
            config.topology,
            len(self.results),
            len(self.results) - len(failed),
            len(failed),
            sum(faults.values()),
            sum(checks.values()),
            sum(len(r.violations) for r in self.results),
        ]
        campaign = bench_result(
            name="campaign",
            title=f"Chaos campaign on {config.topology}",
            headers=[
                "topology",
                "schedules",
                "passed",
                "failed",
                "faults_injected",
                "checks_run",
                "violations",
            ],
            rows=[row],
            telemetry={
                "faults_by_kind": {k: faults[k] for k in sorted(faults)},
                "checks_by_kind": {k: checks[k] for k in sorted(checks)},
                "sim_ns_total": sum(r.sim_ns for r in self.results),
                "epochs_total": sum(r.epochs for r in self.results),
            },
        )
        failures = bench_result(
            name="failures",
            title="Failing schedules",
            headers=["schedule", "seed", "events", "faults", "violations"],
            rows=[_failure_row(r) for r in failed],
            notes="" if failed else "no failing schedules",
        )
        return bench_document(
            bench="chaos-campaign",
            title=f"{config.schedules} fault schedules on {config.topology}",
            seed=config.seed,
            results=[campaign, failures],
        )


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


def _failure_row(result: ScheduleResult) -> List:
    return [
        result.name,
        result.schedule.seed,
        len(result.schedule.events),
        result.faults,
        "; ".join(result.violations),
    ]
