"""A world is a value: a deep copy of a running network runs on as the
original would.

Everything a run depends on is reachable from its ``Simulator``: the event
queue and the control processors' run queues hold bound methods plus their
arguments, never a closure that would keep acting on the world it was made
in, and packet and message ids come from counters on the simulator.  So one
``copy.deepcopy`` of a world -- the network with its hosts' LocalNets,
sinks and senders, in one memo -- is a second, independent world.

The proof is a differential over the six whole-network scenarios of
``tests/net/test_wire_oracle.py``, restated as step lists, each forked
mid-boot, converged and mid-epoch, with the observers off and with flight,
timeseries, in-band and control accounting on (and once with the traffic
engine): the copy, a never-copied twin and the original resumed after the
copy ran end with equal per-switch trace logs, event counts, host and FIFO
counters, sink latencies, and the text of every document the installation
exports.  A DeprecationWarning is an error here: from Python 3.12
on, copying an ``itertools`` object warns, so none may sit in a world.  CI
runs the module on the tier-1 matrix and, in the ``determinism`` job, under
``PYTHONHASHSEED=0`` and ``=random``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.constants import MS, SEC, US
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.host.workload import PeriodicSender, Sink
from repro.network import Network
from repro.scenario import attach_pair
from repro.topology import line, resolve_topology, ring
from tests.net.test_wire_oracle import world_state

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

# -- steps: module functions of the world, so a script holds no closure -----------------


def run(world, duration_ns):
    world["net"].run_for(duration_ns)


def converge(world):
    assert world["net"].run_until_converged(timeout_ns=60 * SEC)


def fault(world, method, *args):
    getattr(world["net"], method)(*args)


def until_epoch_starts(world):
    """Run until some switch enters a newer epoch, then 5 ms more: a
    reconfiguration with its packets in flight and its tasks queued."""
    net = world["net"]
    start = max(ap.epoch for ap in net.autopilots)
    deadline = net.sim.now + 5 * SEC
    while max(ap.epoch for ap in net.autopilots) == start:
        assert net.sim.now < deadline, "no epoch started"
        net.run_for(1 * MS)
    net.run_for(5 * MS)


def launch_traffic(world):
    if world["net"].traffic is not None:
        world["net"].traffic.launch()


def send(world, key, dest_uid, data_bytes):
    world[key].send(dest_uid, data_bytes)


def learn_addresses(world):
    """Kick every driver, then let every destination send its source one
    datagram, so the burst runs on learned unicast addresses."""
    net = world["net"]
    for driver in net.drivers.values():
        driver.kick()
    net.run_for(20 * MS)
    assert all(driver.ready for driver in net.drivers.values())
    for src, dst in enumerate(world["perm"]):
        world["localnets"][dst].send(world["uids"][src], 64)
    net.run_for(2 * MS)
    world["sinks"] = [Sink(localnet) for localnet in world["localnets"]]


def start_senders(world, data_bytes, period_ns, count):
    world["senders"] += [
        PeriodicSender(world["localnets"][src], world["uids"][dst], data_bytes, period_ns, count)
        for src, dst in enumerate(world["perm"])
    ]


# -- the scenarios: (world, script); a string in a script is a fork point ----------------

FORKS = ["mid-boot", "converged", "mid-epoch"]


def ring_cut_restore(**observers):
    world = {"net": Network(ring(4), seed=3, **observers), "sinks": []}
    return world, [
        (until_epoch_starts,), "mid-boot", (converge,), "converged",
        (launch_traffic,), (run, 1400 * MS),
        (fault, "cut_link", 0, 1), (until_epoch_starts,), "mid-epoch",
        (converge,), (fault, "restore_link", 0, 1), (run, 8 * SEC),
    ]


def torus_flaps_crash_restart(**observers):
    world = {"net": Network(resolve_topology("torus-3x4"), seed=5, **observers), "sinks": []}
    return world, [
        (until_epoch_starts,), "mid-boot", (converge,), "converged",
        (fault, "flap_link", 0, 1, 2, 100 * MS), (run, 300 * MS),
        (fault, "crash_switch", 5), (until_epoch_starts,), "mid-epoch",
        (run, 2 * SEC), (fault, "restart_switch", 5), (run, 6 * SEC),
    ]


def src_lan_boot_and_cut(**observers):
    net = Network(resolve_topology("src-lan-30"), seed=1, **observers)
    a, _pa, b, _pb = net.spec.cables[7]
    return {"net": net, "sinks": []}, [
        (until_epoch_starts,), "mid-boot", (converge,), "converged",
        (fault, "cut_link", a, b), (until_epoch_starts,), "mid-epoch", (converge,),
    ]


def storm(direction_tagged, **observers):
    """The section 7 reflecting-host storm; the cut that follows it is
    this restatement's reconfiguration to fork inside."""
    net = Network(line(3), seed=4, direction_tagged_links=direction_tagged, **observers)
    net.add_host("victim", [(1, 9)])
    net.add_host("observer", [(2, 9), (0, 8)])
    net.add_host("sender", [(0, 10), (2, 10)])
    world = {
        "net": net,
        "sinks": [Sink(LocalNet(net.drivers["observer"]))],
        "sender": LocalNet(net.drivers["sender"]),
    }
    return world, [
        (until_epoch_starts,), "mid-boot", (converge,), "converged", (run, 5 * SEC),
        (fault, "power_off_host", "victim", True), (send, "sender", BROADCAST_UID, 200),
        (run, 3 * SEC), (fault, "cut_link", 0, 1), (until_epoch_starts,), "mid-epoch",
        (run, 3 * SEC),
    ]


def permutation_burst(**observers):
    """One host per switch of torus-3x4, each sending to the host five
    switches on, 64 B every 20 us and then 1500 B every 330 us -- with a
    cable cut in the second train."""
    spec = resolve_topology("torus-3x4")
    net = Network(spec, seed=2, **observers)
    names = [f"h{sw}" for sw in range(spec.n_switches)]
    for sw, name in enumerate(names):
        net.add_host(name, [(sw, spec.free_ports(sw)[sw % 3])])
    world = {
        "net": net,
        "localnets": [LocalNet(net.drivers[name]) for name in names],
        "uids": [net.hosts[name].uid for name in names],
        "perm": [(src + 5) % len(names) for src in range(len(names))],
        "sinks": [],
        "senders": [],
    }
    return world, [
        (until_epoch_starts,), "mid-boot", (converge,), "converged",
        (learn_addresses,), (start_senders, 64, 20 * US, 60), (run, 60 * 20 * US + 5 * MS),
        (start_senders, 1500, 330 * US, 30), (run, 3 * MS), (fault, "cut_link", 0, 1),
        (until_epoch_starts,), "mid-epoch", (converge,),
    ]


SCENARIOS = {
    "ring_cut_restore": ring_cut_restore,
    "torus_flaps_crash_restart": torus_flaps_crash_restart,
    "src_lan_boot_and_cut": src_lan_boot_and_cut,
    "reflecting_host_storm": lambda **observers: storm(False, **observers),
    "direction_tagged_links": lambda **observers: storm(True, **observers),
    "permutation_burst": permutation_burst,
}

OBSERVERS = {
    "off": {},
    "on": {"flight": True, "timeseries": True, "inband": True, "control": True},
}


# -- the differential ---------------------------------------------------------------------


def play(world, script):
    for step in script:
        if not isinstance(step, str):
            fn, *args = step
            fn(world, *args)


def observation(world):
    """(events dispatched, everything else observable) at the end of a
    script: world_state plus every document the installation exports, as
    the JSON text ``export_observers`` would write (without its indent)."""
    net = world["net"]
    events, state = world_state(net, world["sinks"])
    observers = {"flight": net.flight, "timeseries": net.sampler, "inband": net.inband,
                 "traffic": net.traffic}
    documents = {
        layer: json.dumps(net._artifact(layer, observer))
        for layer, observer in observers.items()
        if observer is not None
    }
    documents["telemetry"] = json.dumps(net.telemetry(), sort_keys=True)
    return events, (*state, documents)


def assert_same(got, want, who):
    # piecewise, so that a failure names what diverged
    assert got[0] == want[0], f"{who}: events dispatched"
    for index, (part, expected) in enumerate(zip(got[1], want[1])):
        assert part == expected, f"{who}: part {index} of the observation"


def check_copies(scenario, observers):
    twin, script = scenario(**observers)
    play(twin, script)
    want = observation(twin)

    original, script = scenario(**observers)
    forked = []
    for index, step in enumerate(script):
        if not isinstance(step, str):
            fn, *args = step
            fn(original, *args)
            continue
        assert original["net"].converged() == (step == "converged"), step
        copied = copy.deepcopy(original)
        play(copied, script[index + 1:])
        assert_same(observation(copied), want, f"copy at {step}")
        forked.append(step)
    assert forked == FORKS
    assert_same(observation(original), want, "original, resumed")


@pytest.mark.parametrize("observers", OBSERVERS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_copy_runs_on_as_the_original_would(name, observers):
    check_copies(SCENARIOS[name], OBSERVERS[observers])


def test_a_copy_with_the_traffic_engine_runs_on_as_the_original_would():
    check_copies(ring_cut_restore, {**OBSERVERS["on"], "traffic": True})


def test_two_networks_in_one_process_export_the_same_documents(tmp_path):
    """Ids restart with each simulator: the second of two identical runs
    in one process writes the first one's flight and in-band bytes."""

    def documents(out):
        net = Network(resolve_topology("torus-3x4"), seed=0, flight=True, inband=True,
                      control=True)
        attach_pair(net, 4 * MS, 512)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(500 * MS)
        net.cut_link(0, 1)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        return [Path(path).read_bytes() for path in net.export_observers(str(out / "run"))]

    first, second = documents(tmp_path / "a"), documents(tmp_path / "b")
    assert len(first) == 2
    assert first == second
