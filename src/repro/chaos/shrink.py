"""Schedule minimization: ddmin over a failing schedule's event list.

A campaign failure usually arrives as an 8-event schedule where only two
events matter (the cut that started a reconfiguration and the crash that
landed inside it).  :func:`shrink_schedule` applies classic
delta-debugging (Zeller's ddmin) to the event list: repeatedly re-run
subsets, keep any subset that still fails, and stop at a 1-minimal
reproducer -- removing any single remaining event makes the failure
disappear.

The oracle is a caller-supplied predicate (the CLI's: "re-run the
schedule through :meth:`~repro.chaos.campaign.CampaignRunner.
run_schedule` and fail the same checks at the same switches as the
original"), so shrinking works for any failure the campaign can
detect, including flaky-by-construction ones -- a schedule that stops
failing under ddmin simply stops shrinking.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Tuple

from repro.chaos.events import FaultEvent
from repro.chaos.schedule import Schedule

#: re-executions one shrink may spend
MAX_RUNS = 200


def shrink_schedule(
    schedule: Schedule, failing: Callable[[Schedule], bool]
) -> Tuple[Schedule, int]:
    """Minimize ``schedule`` while ``failing`` stays true.

    Returns ``(minimal_schedule, runs_used)``.  The input schedule is
    assumed to fail; if it does not, it is returned unchanged after one
    probe.  ``MAX_RUNS`` bounds total re-executions -- on exhaustion the
    best reduction found so far is returned.
    """
    runs = 0

    def probe(events: List[FaultEvent]) -> bool:
        nonlocal runs
        runs += 1
        return failing(replace(schedule, events=list(events)))

    events = schedule.sorted_events()
    if not probe(events):
        return schedule, runs

    granularity = 2
    while len(events) >= 2 and runs < MAX_RUNS:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events) and runs < MAX_RUNS:
            complement = events[:start] + events[start + chunk :]
            if complement and probe(complement):
                events = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                # re-test from the top of the shrunk list
                start = 0
                chunk = max(1, len(events) // granularity)
                continue
            start += chunk
        if not reduced:
            if granularity >= len(events):
                break  # 1-minimal: no single event can go
            granularity = min(len(events), granularity * 2)

    minimal = replace(schedule, events=list(events))
    minimal.name = (schedule.name + "-min") if schedule.name else "minimal"
    return minimal, runs
