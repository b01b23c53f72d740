"""CLI for chaos campaigns.

.. code-block:: console

    # the CI smoke gate
    python -m repro.chaos --schedules 50 --topology torus-3x4 --seed 0

    # write the bench document and shrunk reproducers for any failures
    python -m repro.chaos --schedules 1000 --topology src-lan-30 \\
        --json campaign.json --artifact-dir chaos-artifacts

    # re-run a reproducer somebody attached to a bug report, recording
    # the flight trace (load it in Perfetto), timeseries, in-band and
    # traffic SLO artifacts of the failure into a directory
    python -m repro.chaos --replay chaos-artifacts/schedule-0007.json \\
        --artifacts replay-out

Exit status is 0 when every schedule passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from repro.chaos.campaign import CampaignConfig, CampaignRunner, campaign_report
from repro.chaos.replay import replay_artifact, reproducer_dict
from repro.chaos.schedule import SCHEDULE_SCHEMA
from repro.chaos.shrink import shrink_schedule
from repro.obs import artifact

#: how many failures the CLI will shrink before giving up (each shrink
#: re-runs the schedule tens of times)
MAX_SHRINKS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run seeded fault-schedule campaigns against the "
        "reconfiguration protocol and check the paper's invariants.",
    )
    parser.add_argument(
        "--schedules", type=int, default=50, help="number of schedules to sample (default 50)"
    )
    parser.add_argument(
        "--topology", default="torus-3x4", help="topology name, e.g. torus-3x4, ring-8, src-lan-30"
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign master seed (default 0)")
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the repro.bench/1 campaign summary here"
    )
    parser.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="shrink failures and write reproducer JSON here",
    )
    parser.add_argument(
        "--replay",
        metavar="ARTIFACT",
        default=None,
        help="replay one reproducer artifact instead of sampling",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="with --replay: record the replay with every observer on and "
        "write <name>.{trace,timeseries,inband,traffic}.json here",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-schedule progress lines")
    args = parser.parse_args(argv)

    if args.replay:
        return _replay(args)

    config = CampaignConfig(topology=args.topology, schedules=args.schedules, seed=args.seed)
    runner = CampaignRunner(config)

    def progress(result) -> None:
        if args.quiet:
            return
        mark = "ok " if result.passed else "FAIL"
        print(
            f"  [{mark}] {result.name}: {len(result.schedule.events)} events, "
            f"{result.faults} faults, {result.epochs} epochs, "
            f"{result.sim_ns / 1e9:.1f}s simulated",
            flush=True,
        )
        for violation in result.violations:
            print(f"         {violation}", flush=True)

    print(
        f"chaos: {config.schedules} schedules on {config.topology} "
        f"(seed {config.seed})",
        flush=True,
    )
    runner.run(progress=progress)
    doc = runner.document()

    if args.json:
        artifact.write(args.json, doc)
        print(f"wrote {args.json}")

    failures = runner.failures
    if failures and args.artifact_dir:
        _shrink_failures(runner, args)

    print()
    print(campaign_report(doc))
    return 1 if failures else 0


def _shrink_failures(runner: CampaignRunner, args) -> None:
    for result in runner.failures[:MAX_SHRINKS]:
        print(f"shrinking {result.name} ({len(result.schedule.events)} events)...", flush=True)
        # shrink toward this failure, not any failure: a subset that fails
        # other checks, or at other switches, is a different bug
        wanted = _signature(result.violations)
        minimal, runs = shrink_schedule(
            result.schedule,
            lambda s: _signature(runner.run_schedule(s).violations) == wanted,
        )
        # the confirmation replay doubles as the recording pass: the
        # causal flight trace, the longitudinal timeseries, the in-band
        # path telemetry, and the workload SLO accounting land next to
        # the reproducer as <name>.{trace,timeseries,inband,traffic}.json
        # (readable via `python -m repro.obs report DIR`, checkable via
        # `python -m repro.obs validate DIR`)
        replayed = runner.run_schedule(minimal, name=result.name, artifacts=args.artifact_dir)
        path = os.path.join(args.artifact_dir, f"{result.name}.json")
        artifact.write(
            path,
            reproducer_dict(
                minimal,
                violations=replayed.violations or result.violations,
                original_events=len(result.schedule.events),
                shrink_runs=runs,
            ),
        )
        print(
            f"  -> {len(minimal.events)} events after {runs} runs: {path} "
            f"(+ .trace/.timeseries/.inband/.traffic.json beside it)",
            flush=True,
        )
    skipped = len(runner.failures) - MAX_SHRINKS
    if skipped > 0:
        print(f"  ({skipped} further failure(s) left unshrunk)")


def _signature(violations) -> set:
    """The (switch or partition, check) pairs that ``violations`` name:
    the ``mid-run@...ns:`` prefix dropped and every number in the check's
    message masked, so that the same checks failing at the same places
    match whatever the counts and times."""
    pairs = set()
    for violation in violations:
        where, sep, check = re.sub(r"^mid-run@\d+ns: ", "", violation).partition(": ")
        if not sep:
            where, check = "", where
        pairs.add((where, re.sub(r"\d+", "#", check)))
    return pairs


def _replay(args) -> int:
    doc = artifact.read(args.replay, SCHEDULE_SCHEMA)
    result = replay_artifact(args.replay, artifacts=args.artifacts)
    print(result.schedule.describe())
    if args.artifacts:
        print(
            f"observer artifacts written to "
            f"{os.path.join(args.artifacts, result.name)}.*.json"
        )
    print()
    if result.passed:
        print("replay PASSED: the artifact no longer reproduces a violation")
        if doc.get("violations"):
            print("originally recorded violations:")
            for violation in doc["violations"]:
                print(f"  - {violation}")
        return 0
    print("replay reproduced violations:")
    for violation in result.violations:
        print(f"  - {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
