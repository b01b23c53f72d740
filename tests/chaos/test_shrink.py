"""ddmin schedule minimization: on synthetic predicates (no simulation),
and the CLI's shrink of a real campaign failure."""

import argparse

import pytest

from repro.chaos import shrink
from repro.chaos.__main__ import _shrink_failures, _signature
from repro.chaos.campaign import CampaignConfig, CampaignRunner
from repro.chaos.events import CrashSwitch, CutLink, NoisyLink, RestoreLink
from repro.chaos.schedule import SCHEDULE_SCHEMA, Schedule
from repro.chaos.shrink import shrink_schedule
from repro.obs import artifact

MS = 1_000_000


def big_schedule():
    events = [
        CutLink(at_ns=1 * MS, a=0, b=1),
        NoisyLink(at_ns=2 * MS, a=1, b=2),
        CrashSwitch(at_ns=3 * MS, index=2),
        RestoreLink(at_ns=4 * MS, a=0, b=1),
        NoisyLink(at_ns=5 * MS, a=2, b=3),
        CrashSwitch(at_ns=6 * MS, index=3),
        CutLink(at_ns=7 * MS, a=3, b=4),
        RestoreLink(at_ns=8 * MS, a=3, b=4),
    ]
    return Schedule(topology="ring-8", seed=0, events=events, name="big")


def test_shrinks_to_the_two_culprit_events():
    """Failure needs both the 0-1 cut and the crash of switch 2."""

    def failing(schedule):
        kinds = {(e.kind, tuple(sorted(e.fault_params().items()))) for e in schedule.events}
        return (
            ("cut-link", (("a", 0), ("b", 1))) in kinds
            and ("crash-switch", (("index", 2),)) in kinds
        )

    minimal, runs = shrink_schedule(big_schedule(), failing)
    assert len(minimal.events) == 2
    assert {e.kind for e in minimal.events} == {"cut-link", "crash-switch"}
    assert failing(minimal)
    assert runs > 1


def test_shrinks_to_single_event():
    def failing(schedule):
        return any(e.kind == "crash-switch" and e.index == 3 for e in schedule.events)

    minimal, _runs = shrink_schedule(big_schedule(), failing)
    assert len(minimal.events) == 1
    assert minimal.events[0].kind == "crash-switch"
    assert minimal.events[0].index == 3


def test_non_failing_schedule_returns_unchanged():
    schedule = big_schedule()
    minimal, runs = shrink_schedule(schedule, lambda s: False)
    assert runs == 1
    assert minimal.sorted_events() == schedule.sorted_events()


def test_run_budget_is_respected(monkeypatch):
    monkeypatch.setattr(shrink, "MAX_RUNS", 10)
    calls = []

    def failing(schedule):
        calls.append(len(schedule.events))
        return True  # everything "fails": worst case for ddmin

    minimal, runs = shrink_schedule(big_schedule(), failing)
    assert runs <= 10
    assert len(calls) == runs
    # everything fails, so a fully-minimized result would be one event;
    # with the budget exhausted we just require progress
    assert len(minimal.events) <= len(big_schedule().events)


def test_minimal_name_is_derived():
    minimal, _ = shrink_schedule(big_schedule(), lambda s: len(s.events) >= 1)
    assert minimal.name == "big-min"


@pytest.fixture(scope="module")
def shrunk(tmp_path_factory):
    """ring-8 seed 3's schedule-0012 as sampled, and the reproducer the
    CLI's shrink wrote for it (with its recording beside it)."""
    out = tmp_path_factory.mktemp("shrunk")
    runner = CampaignRunner(CampaignConfig(topology="ring-8", seed=3))
    original = runner.run_schedule(runner.sample_schedule(12))
    runner.results = [original]
    _shrink_failures(runner, argparse.Namespace(artifact_dir=str(out)))
    return runner, original, artifact.read(str(out / "schedule-0012.json"), SCHEDULE_SCHEMA)


def test_the_cli_shrinks_toward_the_violation_it_started_from(shrunk):
    """ring-8 seed 3's schedule-0012 (six events) fails oracle agreement at
    sw0, sw1, sw5, sw6 and sw7.  Shrinking on "still fails" kept noisy 0-7
    and cut 4-5, which fail at all eight switches against a component of 8:
    another failure.  Shrinking on the same (switch, check) pairs keeps the
    cut of 1-2 too."""
    runner, original, doc = shrunk
    assert doc["shrunk_from_events"] == 6
    events = Schedule.from_dict(doc["schedule"]).sorted_events()
    assert [(e.kind, e.a, e.b) for e in events] == [
        ("cut-link", 1, 2),
        ("noisy-link", 0, 7),
        ("cut-link", 4, 5),
    ]
    assert runner.run_schedule(Schedule.from_dict(doc["schedule"])).violations == (
        original.violations
    )
    assert [v.split(":")[0] for v in original.violations] == ["sw0", "sw1", "sw5", "sw6", "sw7"]


def test_the_reproducer_lists_only_what_the_campaign_checked(shrunk):
    """The shrink's confirmation replay records with a workload aboard; a
    recording checks what the same run without it checks, so the
    reproducer names the sampled run's failure and no traffic-SLO line
    of a workload the campaign never drove."""
    _runner, original, doc = shrunk
    assert _signature(doc["violations"]) == _signature(original.violations)
    assert not [v for v in doc["violations"] if v.startswith("traffic SLO")]
