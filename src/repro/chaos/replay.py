"""Reproducer artifacts: serialized failing schedules and their replay.

When a campaign finds a failing schedule the CLI shrinks it and writes a
``repro.chaos/1`` artifact -- a self-contained JSON file holding the
minimal schedule (topology name, network seed, event list) plus the
violations it provoked.  CI uploads these artifacts; anyone can pull one
and re-run it:

.. code-block:: console

    python -m repro.chaos --replay artifact.json

Replay rebuilds the identical installation (the seed pins clock skews
and every other randomized choice) and re-executes the schedule through
the same campaign machinery, so the recorded violations reproduce
bit-identically or the artifact is stale -- both useful answers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.schedule import SCHEDULE_SCHEMA, Schedule
from repro.obs.artifact import Enum, Schema, fail, read


def reproducer_dict(
    schedule: Schedule,
    violations: List[str],
    original_events: Optional[int] = None,
    shrink_runs: Optional[int] = None,
) -> Dict[str, Any]:
    """The artifact document for a (usually shrunk) failing schedule."""
    doc: Dict[str, Any] = {
        "schema": SCHEDULE_SCHEMA,
        "kind": "reproducer",
        "schedule": schedule.to_dict(),
        "violations": list(violations),
    }
    if original_events is not None:
        doc["shrunk_from_events"] = original_events
    if shrink_runs is not None:
        doc["shrink_runs"] = shrink_runs
    return doc


def _rules(doc: Dict[str, Any]) -> None:
    """The embedded schedule must load."""
    try:
        Schedule.from_dict(doc["schedule"])
    except (KeyError, TypeError, ValueError) as exc:
        fail("$.schedule", f"does not load: {exc!r}")


ARTIFACT = Schema({"kind": Enum("reproducer"), "schedule": {}}, rules=_rules, sort_keys=True)


def replay_artifact(path: str, artifacts: Optional[str] = None):
    """Re-run an artifact's schedule, on the artifact's topology; returns
    its ScheduleResult.  ``artifacts`` names a directory: the replay then runs
    with every observer on and leaves the flight trace, timeseries,
    in-band telemetry and traffic SLO documents of the very run the
    reproducer provokes there (see ``CampaignRunner.run_schedule``).
    """
    from repro.chaos.campaign import CampaignConfig, CampaignRunner

    schedule = Schedule.from_dict(read(path, SCHEDULE_SCHEMA)["schedule"])
    runner = CampaignRunner(CampaignConfig(topology=schedule.topology))
    return runner.run_schedule(schedule, name=schedule.name or "replay", artifacts=artifacts)
