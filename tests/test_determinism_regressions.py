"""Determinism regressions for the discipline's prime suspects.

The RS1 audit covered :mod:`repro.chaos.shrink` and
:mod:`repro.topology.generators` (set/dict-ordered iteration feeding RNG
or schedule order).  Both came back clean -- every draw source is a list
or passes through ``sorted()`` -- and these tests pin that property so a
future edit that regresses to hash-ordered iteration fails loudly, not
just under a lucky hash seed.  The RS402 findings (mutable hot-path
globals) were real and fixed; their immutability is pinned here too.
"""

import pytest

from repro.chaos.events import CrashSwitch, CutLink, NoisyLink, RestoreLink
from repro.chaos.schedule import Schedule, ScheduleSampler
from repro.chaos.shrink import shrink_schedule
from repro.core.portstate import (
    MONITOR_TRANSITIONS,
    SAMPLER_TRANSITIONS,
    PortState,
)
from repro.sim.rng import RngRegistry
from repro.topology.generators import (
    dcell,
    fat_tree,
    random_regular,
    resolve_topology,
    torus,
)
from tests.checkout import parse
from tests.test_discipline import ALLOWED, shared_state

MS = 1_000_000


# -- generators: same seed, same installation, run after run --------------------------


def test_random_regular_is_pure_in_its_seed():
    a = random_regular(16, degree=3, seed=5)
    b = random_regular(16, degree=3, seed=5)
    assert a.cables == b.cables
    assert a.uids == b.uids
    assert a.name == b.name
    # a different seed actually changes the graph (the rng is used)
    c = random_regular(16, degree=3, seed=6)
    assert a.cables != c.cables


def test_random_regular_golden_snapshot():
    """Byte-stable across processes and hash seeds.

    This is the strong form of the audit: if anyone reintroduces
    set-ordered iteration into the generator, the cable list shifts and
    this golden value breaks under PYTHONHASHSEED=random CI runs.
    """
    spec = random_regular(8, degree=3, seed=0)
    assert spec.cables == [
        (4, 1, 1, 1), (1, 2, 5, 1), (1, 3, 2, 1), (5, 2, 0, 1),
        (5, 3, 3, 1), (2, 2, 7, 1), (0, 2, 6, 1), (4, 2, 2, 3),
        (4, 3, 0, 3), (3, 2, 6, 2), (7, 2, 3, 3),
    ]


def test_fat_tree_golden_snapshot():
    """The data-center generators are loop-ordered, never set-ordered;
    these exact cable prefixes break if that regresses (same argument
    as the random_regular golden above)."""
    spec = fat_tree(4)
    assert len(spec.uids) == 20 and len(spec.cables) == 32
    assert spec.cables[:6] == [
        (4, 1, 6, 1), (5, 1, 6, 2), (4, 2, 7, 1),
        (5, 2, 7, 2), (0, 1, 4, 3), (1, 1, 4, 4),
    ]
    assert spec.cables == fat_tree(4).cables


def test_dcell_golden_snapshot():
    spec = dcell(2, level=1)
    assert len(spec.uids) == 9
    assert spec.cables == [
        (0, 1, 2, 1), (1, 1, 4, 1), (3, 1, 5, 1),
        (0, 2, 6, 1), (1, 2, 6, 2), (2, 2, 7, 1),
        (3, 2, 7, 2), (4, 2, 8, 1), (5, 2, 8, 2),
    ]
    assert spec.cables == dcell(2, level=1).cables


def test_resolve_topology_round_trips_every_generator():
    for name in ("torus-3x4", "mesh-2x3", "ring-8", "line-5",
                 "tree-d2f3", "random-16d3s5", "fat-tree-4", "fat-tree-6",
                 "dcell-3l1", "dcell-2l2"):
        spec = resolve_topology(name)
        again = resolve_topology(spec.name)
        assert spec.cables == again.cables, name


# -- sampler: schedules are a pure function of the forked stream ----------------------


def test_schedule_sampler_is_deterministic_per_fork():
    spec = torus(3, 4)
    draws = []
    for _ in range(2):
        registry = RngRegistry(seed=7)
        sampler = ScheduleSampler(spec, registry.fork("sample/0").stream("events"))
        draws.append(sampler.sample(name="s").to_dict())
    assert draws[0] == draws[1]


# -- shrink: ddmin is deterministic for a deterministic oracle ------------------------


def shrinkable_schedule():
    events = [
        CutLink(at_ns=1 * MS, a=0, b=1),
        NoisyLink(at_ns=2 * MS, a=1, b=2),
        CrashSwitch(at_ns=3 * MS, index=2),
        RestoreLink(at_ns=4 * MS, a=0, b=1),
        NoisyLink(at_ns=5 * MS, a=2, b=3),
        CrashSwitch(at_ns=6 * MS, index=3),
    ]
    return Schedule(topology="torus-3x4", seed=3, events=events, name="fixture")


def failing(schedule):
    kinds = [type(e).__name__ for e in schedule.events]
    return "CrashSwitch" in kinds and "CutLink" in kinds


def test_shrink_schedule_is_deterministic():
    results = []
    for _ in range(2):
        minimal, runs = shrink_schedule(shrinkable_schedule(), failing)
        results.append(([e.to_dict() for e in minimal.events], runs))
    assert results[0] == results[1]
    minimal_events, _ = results[0]
    assert len(minimal_events) == 2  # one cut + one crash is 1-minimal


# -- the fixed RS402 findings stay immutable ------------------------------------------


def test_portstate_transition_tables_are_immutable():
    with pytest.raises(TypeError):
        SAMPLER_TRANSITIONS[PortState.DEAD] = frozenset()
    with pytest.raises(TypeError):
        MONITOR_TRANSITIONS[PortState.SWITCH_WHO] = frozenset()


def test_hot_path_packages_have_no_module_level_mutables():
    """The RS402 sweep of src: nothing found in any package a Network is
    built from, and nothing allowed away."""
    hits = [
        (path, line)
        for module, (path, tree) in parse().items()
        for line, rule, _ in shared_state(module, tree)
        if rule == "RS402"
    ]
    assert hits == []
    assert not [key for key in ALLOWED if key.startswith("RS402")]
