"""Fault-event vocabulary: serialization, sampling, and injection."""

import json
import random

from repro.chaos import schedule as schedule_module
from repro.chaos.events import (
    CrashSwitch,
    CutLink,
    FlapLink,
    NoisyLink,
    OnSpanEvent,
    PowerOffHost,
    RestartSwitch,
    RestoreLink,
    event_from_dict,
)
from repro.chaos.schedule import SEC, Injector, Schedule, ScheduleSampler
from repro.constants import SEC as NET_SEC
from repro.network import Network
from repro.sim.rng import RngRegistry
from repro.topology.generators import resolve_topology

MS = 1_000_000

ALL_EVENTS = [
    CutLink(at_ns=1 * MS, a=0, b=1),
    RestoreLink(at_ns=2 * MS, a=0, b=1),
    NoisyLink(at_ns=3 * MS, a=1, b=2),
    FlapLink(at_ns=4 * MS, a=2, b=3, flaps=4, period_ns=50 * MS),
    CrashSwitch(at_ns=5 * MS, index=2),
    RestartSwitch(at_ns=6 * MS, index=2),
    PowerOffHost(at_ns=7 * MS, name="h0", reflect=True),
    OnSpanEvent(
        at_ns=8 * MS,
        match="epoch-start",
        delay_ns=10 * MS,
        action=CrashSwitch(index=1),
    ),
]


def test_every_event_round_trips_through_dict():
    for event in ALL_EVENTS:
        rebuilt = event_from_dict(event.to_dict())
        assert rebuilt == event, event.kind


def test_schedule_round_trips_through_json():
    schedule = Schedule(topology="torus-2x3", seed=99, events=list(ALL_EVENTS), name="rt")
    rebuilt = Schedule.from_dict(json.loads(schedule.to_json()))
    assert rebuilt.topology == schedule.topology
    assert rebuilt.seed == schedule.seed
    assert rebuilt.name == schedule.name
    assert rebuilt.sorted_events() == schedule.sorted_events()


def test_horizon_covers_flap_trains_and_conditional_delays():
    flap = FlapLink(at_ns=1 * SEC, flaps=3, period_ns=100 * MS)
    schedule = Schedule(topology="ring-4", seed=0, events=[flap])
    assert schedule.horizon_ns == 1 * SEC + 2 * 3 * 100 * MS
    conditional = OnSpanEvent(at_ns=2 * SEC, delay_ns=50 * MS, action=CutLink(a=0, b=1))
    schedule = Schedule(topology="ring-4", seed=0, events=[flap, conditional])
    assert schedule.horizon_ns == max(1 * SEC + 600 * MS, 2 * SEC + 50 * MS)


def test_sampler_is_deterministic_per_seed():
    spec = resolve_topology("torus-2x3")

    def draw(seed):
        rng = random.Random(seed)
        sampler = ScheduleSampler(spec, rng, host_names=("h0",))
        return [sampler.sample(name=f"s{i}") for i in range(5)]

    first, second = draw(7), draw(7)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
    assert [s.to_dict() for s in draw(8)] != [s.to_dict() for s in first]


def test_sampler_respects_bounds(monkeypatch):
    monkeypatch.setattr(schedule_module, "MIN_EVENTS", 2)
    monkeypatch.setattr(schedule_module, "MAX_EVENTS", 4)
    monkeypatch.setattr(schedule_module, "HORIZON_NS", 1 * SEC)
    spec = resolve_topology("torus-2x3")
    sampler = ScheduleSampler(spec, random.Random(3))
    for i in range(20):
        schedule = sampler.sample(name=f"s{i}")
        drawn = [event for event in schedule.events if event.at_ns < 1 * SEC]
        assert len(drawn) <= 4
        assert all(event.at_ns >= 0 for event in drawn)
        # whatever lies past the horizon is the tail that heals the noise
        healing = [event for event in schedule.events if event.at_ns >= 1 * SEC]
        assert all(isinstance(event, RestoreLink) for event in healing)


def test_apply_fault_counts_in_telemetry_and_hook():
    net = Network(resolve_topology("ring-4"), seed=0, telemetry=True)
    seen = []
    net.on_fault = lambda kind, detail: seen.append(kind)
    net.apply_fault("cut-link", a=0, b=1)
    net.apply_fault("crash-switch", index=2)
    net.apply_fault("crash-switch", index=2)  # idempotent: already dead
    assert seen == ["cut-link", "crash-switch"]
    assert net.sim.metrics.value("faults_injected", kind="cut-link") == 1
    assert net.sim.metrics.value("faults_injected", kind="crash-switch") == 1


def test_injector_fires_timed_and_conditional_events():
    net = Network(resolve_topology("ring-4"), seed=0, telemetry=True)
    assert net.run_until_converged(timeout_ns=30 * NET_SEC)
    schedule = Schedule(
        topology="ring-4",
        seed=0,
        events=[
            # the cut starts a reconfiguration; the conditional lands a
            # second fault inside it
            CutLink(at_ns=100 * MS, a=0, b=1),
            OnSpanEvent(
                at_ns=0,
                match="epoch-start",
                delay_ns=5 * MS,
                action=CrashSwitch(index=2),
            ),
        ],
    )
    injector = Injector(net, schedule)
    injector.arm()
    net.run_for(2 * NET_SEC)
    assert injector.injected.get("cut-link") == 1
    assert injector.injected.get("crash-switch") == 1
    assert not injector.unfired
    assert not net.autopilots[2].alive


def test_forked_sampling_leaves_network_stream_untouched():
    """Fault sampling draws from forked streams, so a network built from
    the same registry seed sees identical randomness whether or not a
    sampler ran first."""
    spec = resolve_topology("ring-4")

    def clock_offsets(sample_first):
        registry = RngRegistry(5)
        if sample_first:
            sampler = ScheduleSampler(spec, registry.fork("sample/0").stream("events"))
            sampler.sample()
        net = Network(spec, seed=registry.child_seed("net/0"))
        return [ap.trace.clock_offset for ap in net.autopilots]

    assert clock_offsets(False) == clock_offsets(True)
