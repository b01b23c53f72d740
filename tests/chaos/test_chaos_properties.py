"""Property: whatever the fault schedule, the settled network's views
equal the physically reachable components (the section 6.6 oracle).

Hypothesis drives small schedules on a 4-switch ring -- crashes,
restarts, cuts, restores at arbitrary times -- and the campaign
machinery asserts every invariant at the final quiescent point.
Examples are few and the topology small because each example simulates
seconds of network time; the seeded chaos campaigns cover volume.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import campaign
from repro.chaos.campaign import CampaignConfig, CampaignRunner
from repro.chaos.events import CrashSwitch, CutLink, RestartSwitch, RestoreLink
from repro.chaos.schedule import SEC, Schedule

MS = 1_000_000

RING = [(0, 1), (1, 2), (2, 3), (0, 3)]

times = st.integers(min_value=0, max_value=int(1.5 * SEC))
pairs = st.sampled_from(RING)
switches = st.integers(min_value=0, max_value=3)

link_events = st.builds(
    lambda t, p, cut: (CutLink if cut else RestoreLink)(at_ns=t, a=p[0], b=p[1]),
    times,
    pairs,
    st.booleans(),
)
switch_events = st.builds(
    lambda t, i, crash: (CrashSwitch if crash else RestartSwitch)(at_ns=t, index=i),
    times,
    switches,
    st.booleans(),
)
schedules = st.lists(link_events | switch_events, min_size=1, max_size=6)


@pytest.fixture(autouse=True, scope="module")
def no_hosts():
    """A bare ring: the schedules here never touch a host."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "HOSTS", 0)
        yield


def make_runner():
    return CampaignRunner(CampaignConfig(topology="ring-4", schedules=1, seed=0))


@settings(max_examples=10, deadline=None)
@given(events=schedules)
def test_final_views_equal_oracle_components(events):
    runner = make_runner()
    schedule = Schedule(
        topology="ring-4",
        seed=runner.registry.child_seed("net/0"),
        events=events,
        name="prop",
    )
    result = runner.run_schedule(schedule)
    # every built-in invariant, including oracle agreement, must hold --
    # unless the schedule killed every switch, in which case converged()
    # is vacuously unreachable and liveness is excused
    alive_possible = _somebody_survives(events)
    if alive_possible:
        assert result.passed, (schedule.describe(), result.violations)
    else:
        assert not result.converged


def _somebody_survives(events):
    dead = set()
    for event in sorted(events, key=lambda e: e.at_ns):
        if event.kind == "crash-switch":
            dead.add(event.index)
        elif event.kind == "restart-switch":
            dead.discard(event.index)
    return len(dead) < 4
