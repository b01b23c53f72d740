"""The scaling ladder of ``benchmarks/bench_scaling.py`` and the
``scaling`` document it writes."""

import math

import pytest

from benchmarks.bench_scaling import LADDERS, METRICS, fit_slope, fit_slopes, run_point, run_sweep
from repro.obs import artifact


def rungs_of(doc):
    """The ``rungs`` table as one dict per row, keyed by header."""
    rungs = doc["results"][0]
    assert rungs["name"] == "rungs"
    return [dict(zip(rungs["headers"], row)) for row in rungs["rows"]]


def slopes_of(doc):
    """The ``slopes`` table as ``{metric: {slope, r2, points}}``."""
    slopes = doc["results"][1]
    assert slopes["name"] == "slopes" and slopes["headers"] == ["metric", "slope", "r2", "points"]
    return {row[0]: dict(zip(slopes["headers"][1:], row[1:])) for row in slopes["rows"]}


# -- slope fitting ---------------------------------------------------------------------


def test_fit_slope_recovers_known_exponents():
    xs = [4, 8, 16, 32, 64]
    for exponent in (0.5, 1.0, 2.0):
        fit = fit_slope([(x, 3.0 * x**exponent) for x in xs])
        assert fit["slope"] == pytest.approx(exponent, abs=1e-6)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-9)
        assert fit["points"] == len(xs)


def test_fit_slope_needs_two_positive_samples():
    assert fit_slope([]) is None
    assert fit_slope([(4, 10.0)]) is None
    assert fit_slope([(4, 0.0), (8, 0.0)]) is None  # zeros have no log
    assert fit_slope([(4, 5.0), (4, 9.0)]) is None  # zero x-variance


def test_fit_slopes_skips_missing_metrics():
    points = [
        {"topology": f"t{n}", "switches": n, "status": "ok", "blackout_ns": float(n * n)}
        for n in (4, 8, 16)
    ]
    skipped = {"topology": "big", "switches": 999, "status": "ceiling", "blackout_ns": None}
    slopes = fit_slopes(points + [skipped], ["blackout_ns", "converge_ns"])
    assert slopes["blackout_ns"]["slope"] == pytest.approx(2.0, abs=1e-6)
    assert slopes["blackout_ns"]["points"] == 3  # the skipped rung's empty cell is no sample
    assert "converge_ns" not in slopes  # never set on any point


# -- running points --------------------------------------------------------------------


def test_oversized_point_is_skipped_with_reason():
    point = run_point("torus-16x16", seed=0)
    assert "126-switch" in point["status"]
    assert not any(metric in point for metric in METRICS)
    assert point["switches"] == 256


def test_skipped_point_serialization(tmp_path):
    """A skipped rung is a row whose status cell says why and whose
    metric cells are null, through a write and a read."""
    doc = run_sweep(ladder="custom", seed=0, topologies=["torus-32x32"])
    artifact.validate(doc, "repro.bench/1")
    path = tmp_path / "sweep.json"
    artifact.write(str(path), doc)
    (rung,) = rungs_of(artifact.read(str(path), "repro.bench/1"))
    assert rung["status"].startswith("1024 switches exceed the 126-switch")
    assert [rung[metric] for metric in METRICS] == [None] * len(METRICS)
    assert slopes_of(doc) == {}


def test_run_point_is_deterministic():
    a = run_point("ring-4", seed=3)
    b = run_point("ring-4", seed=3)
    assert a["status"] == "ok"
    assert a.pop("events_per_sec") > 0 and b.pop("events_per_sec") > 0  # the host's
    assert a == b
    assert set(METRICS) <= set(a)
    assert a["control_packets"] > 0
    assert a["blackout_ns"] > 0


def test_run_sweep_custom_ladder_validates():
    doc = run_sweep(ladder="custom", seed=1, topologies=["ring-4", "torus-16x16"])
    artifact.validate(doc, "repro.bench/1")
    assert doc["schema"] == "repro.bench/1" and doc["bench"] == "scaling"
    assert "custom ladder: ring-4, torus-16x16" in doc["title"]
    rungs = rungs_of(doc)
    assert [r["topology"] for r in rungs] == ["ring-4", "torus-16x16"]
    assert rungs[0]["status"] == "ok" and "126-switch" in rungs[1]["status"]
    assert all(isinstance(rungs[0][metric], (int, float)) for metric in METRICS)
    assert list(rungs[0]) == ["topology", "switches", "links", "status", *METRICS]
    # host time is telemetry the gate never reads
    host = doc["results"][0]["telemetry"]["host"]
    assert host["ring-4_events_per_sec"] > 0 and "torus-16x16_events_per_sec" not in host


def test_ladders_cover_the_issue_families():
    assert len(LADDERS["smoke"]) >= 4
    assert any(name.startswith("fat-tree") for name in LADDERS["full"])
    assert any(name.startswith("dcell") for name in LADDERS["full"])
    # the scale ladder names the beyond-ceiling points explicitly
    assert "torus-32x32" in LADDERS["scale"]


# -- the repro.obs CLI -----------------------------------------------------------------


def test_cli_help_lists_topologies(capsys):
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "run" in out and "sweep" not in out
    assert "fat-tree-4" in out and "dcell-3l1" in out and "torus-3x4" in out


def test_math_slope_matches_numpyless_reference():
    """The least-squares fit agrees with the closed form on a tiny case."""
    pts = [(2.0, 8.0), (4.0, 64.0)]  # y = x^3
    fit = fit_slope(pts)
    assert fit["slope"] == pytest.approx(3.0, abs=1e-9)
    assert math.isfinite(fit["r2"])
