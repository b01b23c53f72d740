"""The shared scenario driver."""

from repro.constants import SEC
from repro.network import Network
from repro.scenario import drive_scenario
from repro.topology.generators import resolve_topology
from repro.traffic.workload import TrafficConfig


def test_drive_scenario_converges_and_launches_traffic(capsys):
    spec = resolve_topology("ring-4")
    net = Network(
        spec,
        seed=0,
        traffic=TrafficConfig(flows=20, hosts=8, duration_ns=int(0.2 * SEC)),
    )
    result = drive_scenario(net, cuts=[(0, 1)], load_ns=int(0.3 * SEC))
    assert result.converged and result.reconverged
    assert result.cuts == [(0, 1)]
    assert result.warnings == []
    assert capsys.readouterr().err == ""
    assert net.traffic.launched
    assert net.traffic_doc()["flows_completed"] > 0


def test_drive_scenario_without_traffic_or_cuts():
    net = Network(resolve_topology("ring-4"), seed=0)
    result = drive_scenario(net, cuts=[], load_ns=int(0.1 * SEC))
    assert result.converged and result.reconverged
    assert net.traffic is None
