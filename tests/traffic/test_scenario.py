"""The shared scenario driver and subcommand-listing CLI behavior."""

import argparse
import io

from repro.constants import SEC
from repro.network import Network
from repro.scenario import drive_scenario, report_unknown_subcommand
from repro.topology.generators import resolve_topology
from repro.traffic.workload import TrafficConfig


def test_drive_scenario_converges_and_launches_traffic():
    spec = resolve_topology("ring-4")
    net = Network(
        spec,
        seed=0,
        traffic=TrafficConfig(flows=20, hosts=8, duration_ns=int(0.2 * SEC)),
    )
    stream = io.StringIO()
    result = drive_scenario(
        net, cuts=[(0, 1)], load_ns=int(0.3 * SEC), warn_stream=stream
    )
    assert result.converged and result.reconverged
    assert result.cuts == [(0, 1)]
    assert result.warnings == []
    assert stream.getvalue() == ""
    assert net.traffic.launched
    assert net.traffic_doc()["flows_completed"] > 0


def test_drive_scenario_without_traffic_or_cuts():
    net = Network(resolve_topology("ring-4"), seed=0)
    result = drive_scenario(net, cuts=[], load_ns=int(0.1 * SEC))
    assert result.converged and result.reconverged
    assert net.traffic is None


def _parser():
    parser = argparse.ArgumentParser(prog="demo")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("run", help="do the thing")
    sub.add_parser("report", help="show the thing")
    return parser, sub


def test_dispatchable_command_returns_none():
    parser, sub = _parser()
    assert report_unknown_subcommand(parser, sub, ["run"], stream=io.StringIO()) is None
    assert report_unknown_subcommand(parser, sub, ["--help"], stream=io.StringIO()) is None


def test_missing_subcommand_lists_and_returns_2():
    parser, sub = _parser()
    stream = io.StringIO()
    status = report_unknown_subcommand(
        parser, sub, [], extra=["extra line"], stream=stream
    )
    assert status == 2
    text = stream.getvalue()
    assert "subcommands:" in text
    assert "run" in text and "do the thing" in text
    assert "report" in text and "show the thing" in text
    assert "extra line" in text


def test_unknown_subcommand_named_and_returns_2():
    parser, sub = _parser()
    stream = io.StringIO()
    status = report_unknown_subcommand(parser, sub, ["frobnicate"], stream=stream)
    assert status == 2
    assert "unknown subcommand: 'frobnicate'" in stream.getvalue()
