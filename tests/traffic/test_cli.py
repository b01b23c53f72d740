"""python -m repro.traffic run, its document under python -m repro.obs
report/validate, and the exit-2 discipline.

Both observability CLIs (`repro.obs`, `repro.traffic`) share the
missing/unknown-subcommand behavior through
:func:`repro.scenario.report_unknown_subcommand`; the cross-CLI checks
live here so a regression in either tool fails the same suite.
"""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.timeseries import TimeSeries, read_timeseries
from repro.traffic.__main__ import main as traffic_main
from repro.traffic.artifact import validate_traffic
from tests.checkers import series_max


def test_run_writes_valid_artifact(tmp_path, capsys):
    out = str(tmp_path / "traffic.json")
    args = "run --topo ring-4 --flows 24 --hosts 8 --duration 0.3 --drain 0.3"
    status = traffic_main(args.split() + ["--out", out])
    assert status == 0
    text = capsys.readouterr().out
    assert "traffic SLO report" in text
    assert "blackout cost" in text
    doc = validate_traffic(json.load(open(out)))
    assert doc["launched"] is True
    assert doc["generated_flows"] == 24


def test_timeseries_out_alone_turns_the_sampler_on(tmp_path, capsys):
    """``--timeseries-out PATH`` used to need ``--timeseries`` beside it,
    and without it sampled nothing, wrote nothing and said nothing."""
    path = str(tmp_path / "traffic.timeseries.json")
    args = "run --topo ring-4 --flows 12 --hosts 6 --duration 0.2 --drain 0.3"
    assert traffic_main(args.split() + ["--timeseries-out", path]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    assert series_max(TimeSeries(read_timeseries(path)).series("traffic_active_flows")) > 0


def test_report_and_validate_subcommands(tmp_path, capsys):
    out = str(tmp_path / "traffic.json")
    args = "run --topo ring-4 --flows 12 --hosts 6 --duration 0.2 --drain 0.3"
    assert traffic_main(args.split() + ["--out", out]) == 0
    capsys.readouterr()

    assert traffic_main(["report", out]) == 2  # replaced, not aliased
    capsys.readouterr()
    assert obs_main(["report", out]) == 0
    text = capsys.readouterr().out
    assert "traffic SLO report" in text
    assert "blackout cost" in text and "delivery latency p50" in text

    assert obs_main(["validate", out]) == 0
    assert "valid repro.traffic/1" in capsys.readouterr().out


def test_validate_rejects_corrupt_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.traffic/1"}))
    assert obs_main(["validate", str(bad)]) == 1
    assert "$.name" in capsys.readouterr().err


@pytest.mark.parametrize("main", [traffic_main, obs_main], ids=["traffic", "obs"])
def test_missing_subcommand_exits_2_with_listing(main, capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "subcommands:" in err
    assert "topologies (--topo):" in err


@pytest.mark.parametrize("main", [traffic_main, obs_main], ids=["traffic", "obs"])
def test_unknown_subcommand_exits_2(main, capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "unknown subcommand: 'frobnicate'" in err


@pytest.mark.parametrize("main", [traffic_main, obs_main], ids=["traffic", "obs"])
def test_help_still_exits_0(main):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
