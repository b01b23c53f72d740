"""Campaign runner: green runs, broken invariants, shrinking, replay."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.analysis.invariants import quiescent_checks
from repro.chaos import campaign, schedule, shrink
from repro.chaos.campaign import CampaignConfig, CampaignRunner
from repro.chaos.events import CrashSwitch, CutLink, RestartSwitch
from repro.chaos.replay import replay_artifact, reproducer_dict
from repro.chaos.schedule import SCHEDULE_SCHEMA, SEC, Schedule
from repro.chaos.shrink import shrink_schedule
from repro.obs import artifact
from repro.obs.export import SCHEMA as BENCH_SCHEMA

MS = 1_000_000

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


#: sampling and host-plan constants small enough for unit tests
QUICK = {
    schedule: {"MIN_EVENTS": 2, "MAX_EVENTS": 4, "HORIZON_NS": 2 * SEC},
    campaign: {"HOSTS": 1},
}


@pytest.fixture(autouse=True)
def quick_constants(monkeypatch):
    for module, values in QUICK.items():
        for name, value in values.items():
            monkeypatch.setattr(module, name, value)


def quick_config(**overrides):
    """A campaign config small enough for unit tests (under ``QUICK``)."""
    defaults = dict(topology="torus-2x3", schedules=2, seed=0)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_small_campaign_runs_green_and_exports_valid_document():
    runner = CampaignRunner(quick_config())
    results = runner.run()
    assert len(results) == 2
    for result in results:
        assert result.passed, result.violations
        assert result.faults >= 1
        assert result.checks_run.get("oracle-agreement") == 1
    doc = artifact.validate(runner.document(), BENCH_SCHEMA)
    campaign = {r["name"]: r for r in doc["results"]}["campaign"]
    row = dict(zip(campaign["headers"], campaign["rows"][0]))
    assert row["failed"] == 0
    assert row["faults_injected"] >= 2


def test_campaign_document_is_deterministic():
    docs = []
    for _ in range(2):
        runner = CampaignRunner(quick_config())
        runner.run()
        docs.append(json.dumps(runner.document(), sort_keys=True))
    assert docs[0] == docs[1]


def test_campaign_document_is_a_function_of_its_config_not_of_the_process(monkeypatch):
    """Whatever campaigns this process ran before (another host count on
    the same topology here, every earlier test in a full run), each
    document equals the one a fresh interpreter writes: nothing a run
    touches outlives it at module level.  The linter sees that only in
    the simulator's packages (RS402); ``repro.chaos`` is held here."""
    program = (
        "import json, sys\n"
        "from repro.chaos import campaign\n"
        "from tests.chaos.test_campaign import QUICK, quick_config\n"
        "for module, values in QUICK.items():\n"
        "    vars(module).update(values)\n"
        "campaign.HOSTS = int(sys.argv[1])\n"
        "runner = campaign.CampaignRunner(quick_config(schedules=1))\n"
        "runner.run()\n"
        "print(json.dumps(runner.document(), sort_keys=True))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    docs = []
    for hosts in (0, 1):
        monkeypatch.setattr(campaign, "HOSTS", hosts)
        runner = CampaignRunner(quick_config(schedules=1))
        runner.run()
        docs.append(json.dumps(runner.document(), sort_keys=True))
        fresh = subprocess.run(
            [sys.executable, "-c", program, str(hosts)],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT, env=env,
        )
        assert docs[-1] == fresh.stdout.strip()
    assert docs[0] != docs[1]  # the two configs are told apart at all


def test_schedule_results_are_independent_of_run_order():
    """Schedule i is the same run whether sampled alone or mid-campaign."""
    full = CampaignRunner(quick_config())
    full.run()
    alone = CampaignRunner(quick_config())
    schedule = alone.sample_schedule(1)
    assert schedule.to_dict() == full.results[1].schedule.to_dict()
    result = alone.run_schedule(schedule)
    assert result.violations == full.results[1].violations
    assert result.sim_ns == full.results[1].sim_ns


def broken_invariant(network):
    """The real sweep plus a deliberately-broken check: 'no switch may
    ever be down at quiescence' -- false whenever a schedule leaves a
    crash unrestarted."""
    report = quiescent_checks(network)
    report.ran("deliberately-broken")
    for i, ap in enumerate(network.autopilots):
        if not ap.alive:
            report.fail(f"sw{i} is down (the broken invariant forbids this)")
    return report


def test_broken_invariant_fails_and_shrinks_to_small_reproducer(tmp_path, monkeypatch):
    config = quick_config()
    runner = CampaignRunner(config)
    # a hand-made schedule with one culprit (the unrestarted crash)
    # buried among harmless events
    schedule = Schedule(
        topology=config.topology,
        seed=runner.registry.child_seed("net/0"),
        events=[
            CutLink(at_ns=100 * MS, a=0, b=1),
            CrashSwitch(at_ns=300 * MS, index=3),
            RestartSwitch(at_ns=700 * MS, index=3),
            CrashSwitch(at_ns=1100 * MS, index=4),
            CutLink(at_ns=1500 * MS, a=1, b=2),
        ],
        name="broken",
    )
    with monkeypatch.context() as patch:
        # the binding the campaign calls at its final quiescent point
        patch.setattr(campaign, "quiescent_checks", broken_invariant)
        result = runner.run_schedule(schedule)
        assert result.checks_run["deliberately-broken"] == 1
        assert not result.passed
        assert any("sw4 is down" in v for v in result.violations)

        patch.setattr(shrink, "MAX_RUNS", 40)
        minimal, runs = shrink_schedule(schedule, lambda s: not runner.run_schedule(s).passed)
    assert len(minimal.events) <= 5, minimal.describe()
    kinds = [e.kind for e in minimal.events]
    assert "crash-switch" in kinds
    # the 1-minimal reproducer is exactly the unrestarted crash
    assert len(minimal.events) == 1

    # and it round-trips through a reproducer artifact
    path = tmp_path / "broken.json"
    reproducer = reproducer_dict(
        minimal,
        violations=result.violations,
        original_events=len(schedule.events),
        shrink_runs=runs,
    )
    artifact.write(str(path), reproducer)
    doc = artifact.read(str(path), SCHEDULE_SCHEMA)
    assert doc["shrunk_from_events"] == 5
    replayed = CampaignRunner(config).run_schedule(Schedule.from_dict(doc["schedule"]))
    # with the real sweep back the minimal schedule passes: one dead
    # switch is a legal quiescent state
    assert replayed.passed, replayed.violations


def test_restart_mid_reconfiguration_fixture_replays_clean():
    """Regression for the stale-epoch revival bug: crashing the root
    mid-reconfiguration and restarting it 10ms later used to let the
    restarted switch adopt a reconfiguration message from the stale
    in-flight epoch and self-configure as a one-switch network.  The
    checked-in artifact is the minimal reproducer; it must now replay
    with no violations."""
    path = os.path.join(FIXTURES, "restart_mid_reconfig.json")
    doc = artifact.read(path, SCHEDULE_SCHEMA)
    assert doc["kind"] == "reproducer"
    result = replay_artifact(path)
    assert result.passed, result.violations
    assert result.injected.get("crash-switch") == 1
    assert result.injected.get("restart-switch") == 1


def test_replay_with_trace_writes_valid_flight_trace(tmp_path):
    """--artifacts on a replay captures the causal timeline of the very
    run the reproducer provokes, as a validated Perfetto document."""
    from repro.obs.perfetto import read_trace

    path = os.path.join(FIXTURES, "restart_mid_reconfig.json")
    result = replay_artifact(path, artifacts=str(tmp_path))
    assert result.passed, result.violations
    # raises SchemaError if malformed
    trace = read_trace(str(tmp_path / f"{result.name}.trace.json"))
    events = trace["traceEvents"]
    assert any(e.get("ph") == "s" for e in events), "expected message flows"
    assert trace["otherData"]["recorded"] > 0


def test_run_schedule_result_unchanged_by_tracing(tmp_path):
    """The flight recorder is observational: tracing a schedule must not
    change what the schedule does."""
    runner = CampaignRunner(quick_config(schedules=1))
    schedule = runner.sample_schedule(0)
    plain = runner.run_schedule(schedule)
    traced = runner.run_schedule(schedule, artifacts=str(tmp_path))
    assert plain.passed == traced.passed
    assert plain.sim_ns == traced.sim_ns
    assert plain.epochs == traced.epochs
    assert plain.injected == traced.injected


def test_injected_counts_faults_when_the_hook_is_already_held():
    """Who holds ``Network.on_fault`` does not decide what is counted: a
    network whose hook is set before the schedule runs still reports
    every fault the schedule fired."""
    fired = []

    class HookedRunner(CampaignRunner):
        def build_network(self, schedule, **observers):
            network = super().build_network(schedule, **observers)
            network.on_fault = lambda kind, _detail: fired.append(kind)
            return network

    runner = HookedRunner(quick_config(schedules=1))
    result = runner.run_schedule(runner.sample_schedule(0))
    assert fired
    assert result.injected == Counter(fired)


def test_run_schedule_timeseries_artifact_written_and_valid(tmp_path):
    """artifacts= records the longitudinal sampler over the faulted run
    and writes a validated artifact, without changing the result."""
    from repro.obs.timeseries import read_timeseries

    runner = CampaignRunner(quick_config(schedules=1))
    schedule = runner.sample_schedule(0)
    plain = runner.run_schedule(schedule)
    sampled = runner.run_schedule(schedule, name="s", artifacts=str(tmp_path))
    ts_path = str(tmp_path / "s.timeseries.json")
    assert plain.passed == sampled.passed
    assert plain.sim_ns == sampled.sim_ns
    assert plain.injected == sampled.injected
    doc = read_timeseries(ts_path)  # raises SchemaError if malformed
    assert doc["samples_taken"] > 0
    assert any(s["name"] == "epoch" for s in doc["series"])


def test_unknown_topology_is_rejected_with_suggestions():
    with pytest.raises(ValueError):
        CampaignRunner(quick_config(topology="moebius-9"))
