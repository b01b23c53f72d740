"""The E-row driver of ``benchmarks/bench_util.py``: a :class:`Row`'s
overrides set exactly the fields they name, and its fault events reach
the network as the direct fault calls they replace would."""

import os
import subprocess
import sys

import pytest

from benchmarks.bench_util import Rig, Row, autopilot_params
from repro.chaos.events import CrashSwitch, CutLink, FlapLink, PowerOffHost, RestoreLink
from repro.constants import MS, SEC
from repro.core.autopilot import AutopilotParams, CpuModel
from repro.topology import ring

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_an_override_sets_exactly_the_named_fields():
    got = autopilot_params({"reconfig.reset_on_load": False, "monitor.skeptic.growth": 3.0})
    want = AutopilotParams()
    want.reconfig.reset_on_load = False
    want.monitor.skeptic.growth = 3.0
    assert got == want != AutopilotParams()


@pytest.mark.parametrize("path", [
    "reconfig.reset_on_lod",            # a typo
    "recon.reset_on_load",              # a parent that is no field
    "reconfig.reset_on_load.value",     # below a plain value
    "naive",                            # a method, not a field
    "",
])
def test_an_unknown_override_path_raises(path):
    with pytest.raises(KeyError):
        autopilot_params({path: 1})
    with pytest.raises(KeyError):
        Rig(Row(ring(3), params={path: 1}))


def test_each_switch_gets_its_own_copy_of_an_override():
    net = Rig(Row(ring(3), params={"cpu": CpuModel.naive()})).net
    cpus = [ap.params.cpu for ap in net.autopilots]
    assert all(cpu == CpuModel.naive() for cpu in cpus)
    assert len({id(cpu) for cpu in cpus}) == len(cpus)


#: one of each fault kind a row uses, immediate and scheduled
FAULTS = (
    CutLink(a=0, b=1),
    RestoreLink(at_ns=300 * MS, a=0, b=1),
    FlapLink(at_ns=400 * MS, a=1, b=2, flaps=2, period_ns=100 * MS),
    CrashSwitch(at_ns=900 * MS, index=3),
    PowerOffHost(at_ns=1 * SEC, name="h"),
)
BASE = dict(topology=ring(4), hosts={"h": [(2, 9)], "g": [(0, 9)]}, bare=("h",), settle_ns=1 * SEC)


def test_row_faults_count_as_the_direct_calls_they_replace():
    driven = Rig(Row(**BASE, faults=FAULTS, stop=3 * SEC)).boot().inject().net

    rig = Rig(Row(**BASE)).boot()
    net = rig.net
    t0 = net.sim.now
    net.cut_link(0, 1)
    net.sim.at(t0 + 300 * MS, net.restore_link, 0, 1)
    net.sim.at(t0 + 400 * MS, net.flap_link, 1, 2, 2, 100 * MS)
    net.sim.at(t0 + 900 * MS, net.crash_switch, 3)
    net.sim.at(t0 + 1 * SEC, net.power_off_host, "h")
    net.run_for(3 * SEC)

    assert driven.faults == net.faults == {
        "cut-link": 1, "restore-link": 1, "flap-link": 1, "crash-switch": 1, "power-off-host": 1,
    }
    assert driven.sim.now == net.sim.now
    assert [ap.epoch for ap in driven.autopilots] == [ap.epoch for ap in net.autopilots]
    assert driven.hosts["g"].packets_received == net.hosts["g"].packets_received


def test_an_immediate_fault_applies_at_the_fault_instant_and_a_later_one_waits():
    rig = Rig(Row(**BASE, faults=FAULTS[:2])).boot()
    t0 = rig.net.sim.now
    net = rig.inject().net  # stop 0: nothing runs after the faults
    assert net.sim.now == t0
    assert net.faults == {"cut-link": 1}


def test_stop_none_runs_until_reconverged():
    net = Rig(Row(ring(4), settle_ns=0, faults=(CutLink(a=0, b=1),), stop=None)).boot().inject().net
    assert net.faults == {"cut-link": 1} and net.converged()
    assert net.current_epoch() > 1


def test_the_entry_point_runs_one_bench_by_name():
    run = subprocess.run(
        [sys.executable, "-m", "benchmarks", "fifo_sizing", "--only", "no_such_test"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 2 and "no tests selected" in run.stderr
    run = subprocess.run([sys.executable, "-m", "benchmarks", "no_such_bench"],
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 2 and "invalid choice" in run.stderr
