"""The rate plan kept per switch pair, held to the per-flow plan it replaced.

* **shadow**: through cut -> restore -> switch crash -> restart, after
  every ``_resolve`` each active flow's path equals a direct
  ``walk_path`` and its rate equals the naive per-flow solve
  (``tests/naive_fluid.py``) of those freshly walked paths -- ``==`` on
  floats, and the engine's per-link pair lists and loads equal a rebuild
  from ``_pairs``.  A pair that kept a stale path across a table-generation
  bump or a flap edge, a count that drifted from the flows it stands for,
  or a list or load the joins and completions left behind fails here.
* **golden**: the ``repro.traffic/1`` documents of three of those runs
  were written by the per-flow engine (the commit before the pair plan)
  and are compared byte for byte.
* ``traffic_unrouted_flows`` counts walks that failed, not flows still
  waiting for their first walk.
"""

import collections
import os
from dataclasses import replace

import pytest

from repro.constants import MS, SEC
from repro.network import Network
from repro.obs import artifact, timeseries
from repro.topology.generators import resolve_topology
from repro.traffic.engine import MAX_HOPS
from repro.traffic.fluid import walk_path
from repro.traffic.workload import TrafficConfig
from tests.naive_fluid import naive_flow_rates

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: few hosts, so the same switch pairs empty and refill all run long
WORKLOAD = TrafficConfig(
    flows=240, hosts=24, mean_flow_bytes=24_576, duration_ns=int(3.5 * SEC)
)


def drive(topology, pattern, shadow=False, **observers):
    """Boot, launch, then cut -> restore -> crash -> restart, with load
    between the faults.  Returns (network, resolves checked)."""
    spec = resolve_topology(topology)
    net = Network(spec, seed=0, traffic=replace(WORKLOAD, pattern=pattern), **observers)
    checked = _shadow(net.traffic) if shadow else []
    a, _pa, b, _pb = spec.cables[0]
    victim = len(net.switches) - 1
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.traffic.launch()
    for fault in (
        lambda: net.cut_link(a, b),
        lambda: net.restore_link(a, b),
        lambda: net.crash_switch(victim),
        lambda: net.restart_switch(victim),
    ):
        net.run_for(int(0.15 * SEC))
        fault()
        assert net.run_until_converged(timeout_ns=120 * SEC)
    net.run_for(int(0.15 * SEC))
    return net, checked


def _shadow(engine):
    """Check the whole plan against the per-flow one after every solve."""
    net = engine.network
    key_of = {link: min(end, (sw, port)) for end, (sw, port, link) in engine._hops.items()}
    solve = engine._resolve
    checked = []

    def resolve():
        solve()
        paths = {}
        for fid in engine._active:
            run = engine.runs[fid]
            links = walk_path(net, engine._hops, *run.switches, MAX_HOPS)
            assert run.pair is engine._pairs[run.switches]
            assert run.pair.links == links, f"flow {fid}: stale path at {net.sim.now}"
            paths[fid] = None if links is None else tuple(key_of[link] for link in links)
        rates = naive_flow_rates(paths)
        for fid, rate in rates.items():
            assert engine.runs[fid].pair.rate == rate, f"flow {fid} at {net.sim.now}"
        counts = collections.Counter(engine.runs[fid].switches for fid in engine._active)
        assert counts == {key: pair.count for key, pair in engine._pairs.items()}
        lists = [set() for _ in engine._load]
        load = [0] * len(engine._load)
        for pair in engine._pairs.values():
            for link in pair.links or ():
                lists[link].add(pair)
                load[link] += pair.count
        assert [set(kept) for kept in engine._crossing] == lists, f"lists at {net.sim.now}"
        assert engine._load == load, f"loads at {net.sim.now}"
        checked.append((len(paths), sum(path is None for path in paths.values())))

    engine._resolve = resolve
    return checked


@pytest.mark.parametrize("topology", ("ring-4", "torus-3x4"))
@pytest.mark.parametrize("pattern", ("hotspot", "incast"))
def test_plan_equals_the_per_flow_plan_after_every_resolve(topology, pattern):
    net, checked = drive(topology, pattern, shadow=True)
    assert len(checked) > 50
    assert max(flows for flows, _ in checked) > 20
    # the faults did black flows out, so unrouted pairs were solved too
    assert any(unrouted for _, unrouted in checked)
    assert net.traffic.completed > 80


@pytest.mark.parametrize(
    "topology, pattern",
    [("ring-4", "hotspot"), ("ring-4", "incast"), ("torus-3x4", "hotspot")],
)
def test_documents_are_the_per_flow_engines_byte_for_byte(topology, pattern, tmp_path):
    name = f"{topology}_{pattern}"
    net, _ = drive(topology, pattern)
    path = tmp_path / f"{name}.traffic.json"
    artifact.write(str(path), net.traffic_doc(name))
    with open(os.path.join(FIXTURES, f"{name}.traffic.json"), "rb") as fh:
        assert path.read_bytes() == fh.read()


@pytest.mark.parametrize("period_ns", (5 * MS, 40 * MS))
def test_every_edge_of_a_flap_train_reaches_the_plan(period_ns):
    """A flap train on the most loaded cable: each edge changes what a
    walk answers before any table notices, so a resolve between an edge
    and the next table change must re-walk -- the shadow check fails on
    a pair that kept the path an edge broke (or mended)."""
    spec = resolve_topology("torus-3x4")
    net = Network(spec, seed=0, traffic=replace(
        WORKLOAD, flows=300, mean_flow_bytes=262_144, duration_ns=SEC
    ))
    engine = net.traffic
    checked = _shadow(engine)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    engine.launch()
    net.run_for(int(0.25 * SEC))
    load = collections.Counter()
    for pair in engine._pairs.values():
        for link in pair.links or ():
            load[link] += pair.count
    [(link, flows)] = load.most_common(1)
    assert flows > 20
    (a, _pa), (b, _pb) = sorted(end for end, hop in engine._hops.items() if hop[2] == link)
    before = len(checked)
    net.flap_link(a, b, flaps=4, period_ns=period_ns)
    net.run_for(8 * period_ns)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.run_for(int(0.15 * SEC))
    assert len(checked) - before > 8
    assert net.faults["flap-link"] == 1 and sum(net.faults.values()) == 1


def test_flows_awaiting_their_first_walk_are_not_unrouted(monkeypatch):
    """Admission pacing is not blackout: on an uncut ring every walk
    succeeds, so the series never leaves 0 although each arrival waits
    up to ``ARRIVAL_BATCH_NS`` for its first solve."""
    monkeypatch.setattr(timeseries, "INTERVAL_NS", 1 * MS)
    spec = resolve_topology("ring-4")
    net = Network(spec, seed=0, traffic=replace(WORKLOAD, pattern="uniform"), timeseries=True)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    net.traffic.launch()
    net.run_for(int(0.5 * SEC))
    series = net.sampler.view()
    assert series.series("traffic_active_flows").max() > 0
    assert series.series("traffic_unrouted_flows").max() == 0.0
    assert net.traffic_doc()["flows_unrouted"] == 0
