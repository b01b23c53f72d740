"""What the fluid water-fill costs, counted rather than timed.

``solve_rates`` fills over the per-link pair lists and loads the engine
keeps, taking each round's bottleneck from a heap of ``(share, link)``.
This census counts its work on one fixed scenario -- the seed-0 inputs of
``benchmarks/e2e``'s ``traffic_srclan``: src-lan-30, 1 600 hotspot flows
over 500 hosts arriving within 1 s, cable 24-25 cut after 0.5 s of load
and 0.5 s more after reconvergence.  The columns:

* **solves**: ``solve_rates`` calls;
* **rounds**: filling rounds, one per bottleneck frozen -- the same
  number whatever finds the bottleneck;
* **shares**: share evaluations (``remaining / load``), one per heap
  entry; **stale**: entries popped after their link moved or emptied;
* **subtractions**: ``remaining -= share``, once per frozen flow on each
  link it crosses; **skipped**: those a link whose load fell to 0 is
  spared, as it is never read again;
* **list updates**: pairs entered in or dropped from a link's list.

The solver all-links rescan it replaced did, on the same 913 solves,
14 509 rounds, 373 047 share evaluations (every loaded link, every
round), 1 396 997 subtractions with none skipped, and 753 351 list
appends (every pair's links, every solve): the same rounds, 71 % fewer
share evaluations, a third fewer subtractions, 1 % of the list updates.  Everything is observed from
outside: the heap calls and ``Pair.rate`` through module names, the
float operations through a counting capacity.
"""

from collections import Counter

import pytest

from repro.constants import MS, SEC
from repro.network import Network
from repro.scenario import drive_scenario
from repro.topology.generators import resolve_topology
from repro.traffic import engine, fluid
from repro.traffic.workload import TrafficConfig

SRCLAN_SEED0 = {
    "solves": 913,
    "rounds": 14_509,
    "shares": 107_730,
    "stale": 93_221,
    "subtractions": 930_001,
    "skipped": 466_996,
    "list updates": 8_155,
}


class Census:
    """Counts the solver's work while installed over the engine."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.popped = False  # a pop not yet followed by a freeze
        census = self

        class Capacity(float):
            """The link capacity, counting what the fill does with it."""

            def __sub__(self, other):
                census.counts["subtractions"] += 1
                return Capacity(float(self) - other)

            def __truediv__(self, other):
                census.counts["shares"] += 1
                return float(self) / other

        class CountedPair(fluid.Pair):
            __slots__ = ()

            @property
            def rate(self):
                return fluid.Pair.rate.__get__(self)

            @rate.setter
            def rate(self, value):
                if value is not None and census.popped:
                    census.popped = False
                    census.counts["rounds"] += 1
                fluid.Pair.rate.__set__(self, value)

        def solve(pairs, crossing, load):
            census.counts["solves"] += 1
            census.counts["crossings"] += sum(
                pair.count * len(pair.links) for pair in pairs if pair.links
            )
            fluid.solve_rates(pairs, crossing, load)
            census.popped = False  # Pair() outside a solve sets a rate too

        def heappop(heap):
            census.counts["pops"] += 1
            census.popped = True
            return pop(heap)

        def walk(*args):
            links = walk_path(*args)
            census.counts["list updates"] += len(links or ())
            return links

        def complete(self, run, now):
            complete_run(self, run, now)
            if not run.pair.count:
                census.counts["list updates"] += len(run.pair.links or ())

        pop, walk_path = fluid.heappop, engine.walk_path
        complete_run = engine.TrafficEngine._complete
        monkeypatch.setattr(engine, "Pair", CountedPair)
        monkeypatch.setattr(engine, "solve_rates", solve)
        monkeypatch.setattr(fluid, "LINK_CAPACITY", Capacity(fluid.LINK_CAPACITY))
        monkeypatch.setattr(engine, "walk_path", walk)
        monkeypatch.setattr(engine.TrafficEngine, "_complete", complete)
        monkeypatch.setattr(fluid, "heappop", heappop)

    def table(self):
        counts = self.counts
        return {
            "solves": counts["solves"],
            "rounds": counts["rounds"],
            "shares": counts["shares"],
            "stale": counts["pops"] - counts["rounds"],
            "subtractions": counts["subtractions"],
            "skipped": counts["crossings"] - counts["subtractions"],
            "list updates": counts["list updates"],
        }


def srclan_seed0(monkeypatch):
    traffic = TrafficConfig(pattern="hotspot", flows=1600, hosts=500, duration_ns=1 * SEC)
    net = Network(resolve_topology("src-lan-30"), seed=0, traffic=traffic)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    census = Census(monkeypatch)
    result = drive_scenario(net, [(24, 25)], load_ns=500 * MS, timeout_ns=60 * SEC)
    assert result.reconverged
    return census.table()


@pytest.mark.parametrize("scenario, expected", [(srclan_seed0, SRCLAN_SEED0)])
def test_solve_census(monkeypatch, scenario, expected):
    assert scenario(monkeypatch) == expected
