"""python -m repro.obs run, then report: record everything once, read it
afterwards from the directory alone.  The bytes of the observer documents
are rows of the identity manifest (``tests/identity.py``)."""

import re

import pytest

from repro.obs import artifact
from repro.obs.__main__ import main

FILES = [
    f"ring-4.{kind}.json" for kind in ("bench", "inband", "timeseries", "trace")
]


def _run(out, capsys):
    """One ``run``; its printed report, the directory spelt ``OUT``."""
    assert main(["run", "--topo", "ring-4", "--cut", "0-1", "--out", str(out)]) == 0
    return capsys.readouterr().out.replace(str(out), "OUT")


def _without_host_time(report):
    """The report minus the hotspots result: its rows and its notes line
    are wall-clock measurements of this host."""
    return re.sub(r"== Handler hotspots on ring-4 ==\n.*?\n\n", "", report, flags=re.S)


def test_run_writes_four_valid_documents_and_reports_each(tmp_path, capsys):
    first = _run(tmp_path / "a", capsys)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == FILES
    tags = [artifact.read(str(tmp_path / "a" / name))["schema"] for name in FILES]
    assert tags == [
        "repro.bench/1",
        "repro.obs.inband/2",
        "repro.obs.timeseries/1",
        "repro.obs.flight/1",
    ]
    # `run` ends in `report DIR`: one section per file, in sorted order
    assert re.findall(r"^== OUT/(\S+) \((\S+)\) ==$", first, flags=re.M) == list(zip(FILES, tags))
    assert main(["report", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "a"), "OUT") == first

    # what export | why | profile | paths | the doctor printed, from the files
    assert "What the scenario measured on ring-4" in first
    assert "reconfiguration epoch 3:" in first and "tree-stable [sw0]" in first
    assert "control packets" in first and re.search(r"election +\d+ pkts", first)
    assert "events/sec" in first and "ReceiveFifo._on_boundary" in first
    assert "events recorded on 4 components, 0 dropped" in first
    assert "4 table loads, 4 causally rooted at a port-state transition" in first
    assert "why did sw2 load its table in epoch 3?" in first
    assert "samples every 50 ms" in first and "recent reconfiguration events:" in first
    assert "change @ +" in first and "2 path change(s) detected" in first

    # deterministic: host time aside, a second run prints the same report
    second = _run(tmp_path / "b", capsys)
    assert "Handler hotspots" not in _without_host_time(first)
    assert _without_host_time(first) == _without_host_time(second)


@pytest.mark.parametrize("gone", ["export", "why", "profile", "paths", "watch"])
def test_replaced_subcommands_exit_2_with_the_listing(gone, capsys):
    with pytest.raises(SystemExit) as exc:
        main([gone, "--topo", "ring-4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: {gone!r} (choose from 'run', 'report', 'validate')" in err
