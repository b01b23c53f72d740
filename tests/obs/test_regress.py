"""The bench-regression trajectory: archive, flatten, compare, gate."""

import copy
import json

import pytest

from repro.obs import artifact
from repro.obs.artifact import SchemaError
from repro.obs.export import bench_document, bench_result
from repro.obs.regress import (
    REGRESS_SCHEMA,
    Tolerance,
    archive_document,
    baseline_window,
    compare,
    load_history,
    metrics_of,
    render_verdict,
    repeat_stats_of,
)


def make_doc(measured=120.0, blackout=119.3, seed=0, repeat=None):
    telemetry = {"sim_ns": 3_000_000_000}
    if repeat is not None:
        telemetry["repeat"] = repeat
    return bench_document(
        "reconfiguration",
        title="E1",
        seed=seed,
        results=[
            bench_result(
                "E1_src_lan",
                "E1: single-link failure",
                headers=["implementation", "measured_ms", "blackout_ms"],
                rows=[["tuned", measured, blackout]],
                telemetry=telemetry,
            )
        ],
    )


# -- flattening ------------------------------------------------------------------------


def test_metrics_of_flattens_rows_and_telemetry():
    flat = metrics_of(make_doc())
    assert flat == {
        "E1_src_lan/tuned/measured_ms": 120.0,
        "E1_src_lan/tuned/blackout_ms": 119.3,
        "E1_src_lan/telemetry/sim_ns": 3_000_000_000.0,
    }


def test_metrics_of_parses_numeric_strings_and_skips_text():
    doc = make_doc()
    doc["results"][0]["rows"] = [["tuned", "120.5", "fast"]]
    flat = metrics_of(doc)
    assert flat["E1_src_lan/tuned/measured_ms"] == 120.5
    assert "E1_src_lan/tuned/blackout_ms" not in flat


def test_repeat_stats_extraction():
    doc = make_doc(repeat={
        "runs": 3,
        "seeds": [0, 1, 2],
        "metrics": {"tuned/measured_ms": {"mean": 121.0, "stdev": 2.5}},
    })
    assert repeat_stats_of(doc) == {"E1_src_lan/tuned/measured_ms": (121.0, 2.5)}


# -- archive ---------------------------------------------------------------------------


def test_archive_appends_history_entries(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "abc123")
    d = str(tmp_path)
    path = archive_document(d, make_doc(seed=0))
    archive_document(d, make_doc(measured=125.0, seed=1))
    entries = load_history(path)
    assert len(entries) == 2
    assert entries[0]["sha"] == "abc123"
    assert [e["seed"] for e in entries] == [0, 1]
    assert entries[1]["doc"]["results"][0]["rows"][0][1] == 125.0


def test_baseline_window_resolves_dir_file_and_history(tmp_path):
    doc = make_doc()
    single = tmp_path / "reconfiguration.json"
    single.write_text(json.dumps(doc))
    assert len(baseline_window(str(single), "reconfiguration")) == 1
    assert len(baseline_window(str(tmp_path), "reconfiguration")) == 1
    hist_dir = tmp_path / "hist"
    hist_dir.mkdir()
    for m in (118.0, 120.0, 122.0):
        archive_document(str(hist_dir), make_doc(measured=m))
    window = baseline_window(str(hist_dir), "reconfiguration")
    assert len(window) == 3
    with pytest.raises(FileNotFoundError):
        baseline_window(str(hist_dir / "nope"), "reconfiguration")
    with pytest.raises(ValueError):
        baseline_window(str(single), "other-bench")


# -- tolerance bands -------------------------------------------------------------------


def test_tolerance_band_takes_widest_of_rel_abs_sigma():
    tol = Tolerance(rel=0.1, abs=0.5, sigma=2.0)
    lo, hi = tol.band("m", mean=100.0, stdev=0.0)
    assert (lo, hi) == (90.0, 110.0)  # rel wins
    lo, hi = tol.band("m", mean=100.0, stdev=20.0)
    assert (lo, hi) == (60.0, 140.0)  # sigma wins
    lo, hi = tol.band("m", mean=0.0, stdev=0.0)
    assert (lo, hi) == (-0.5, 0.5)  # abs floor


def test_tolerance_fnmatch_overrides(tmp_path):
    path = tmp_path / "tolerances.json"
    path.write_text(json.dumps({"E1_*/tuned/*": 0.5}))
    tol = Tolerance.load_overrides(str(path), rel=0.1)
    assert tol.rel_for("E1_src_lan/tuned/measured_ms") == 0.5
    assert tol.rel_for("other/metric") == 0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pat": "wide"}))
    with pytest.raises(ValueError):
        Tolerance.load_overrides(str(bad))


# -- compare ---------------------------------------------------------------------------


def test_tolerance_direction_overrides(tmp_path):
    path = tmp_path / "tolerances.json"
    path.write_text(json.dumps({
        "*/ev_per_sec": {"rel": 0.3, "direction": "floor"},
        "*/wall_ms": {"rel": 0.3, "direction": "ceiling"},
        "*/other": 0.5,
    }))
    tol = Tolerance.load_overrides(str(path))
    assert tol.direction_for("x/ev_per_sec") == "floor"
    assert tol.direction_for("x/wall_ms") == "ceiling"
    assert tol.direction_for("x/other") == "both"
    assert tol.rel_for("x/ev_per_sec") == 0.3
    # floor: only a drop below the band fails
    assert tol.in_band("x/ev_per_sec", 1e9, lo=70.0, hi=130.0)
    assert not tol.in_band("x/ev_per_sec", 69.0, lo=70.0, hi=130.0)
    # ceiling: only a rise above the band fails
    assert tol.in_band("x/wall_ms", 0.0, lo=70.0, hi=130.0)
    assert not tol.in_band("x/wall_ms", 131.0, lo=70.0, hi=130.0)
    for bad_value in ({"rel": 0.3, "direction": "sideways"},
                      {"direction": "floor"},
                      {"rel": 0.3, "extra": 1}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pat": bad_value}))
        with pytest.raises(ValueError):
            Tolerance.load_overrides(str(bad))


def test_floor_direction_admits_improvement_but_gates_regression():
    """The perf-gate shape: throughput may improve without limit, but a
    drop below the band is a regression."""
    tol = Tolerance(rel=0.25, directions={"*/measured_ms": "floor"})
    fast = compare(make_doc(measured=10_000.0, blackout=9_000.0),
                   [make_doc()], tolerance=tol)
    named = {c["metric"]: c for c in fast["comparisons"]}
    assert named["E1_src_lan/tuned/measured_ms"]["status"] == "ok"
    assert named["E1_src_lan/tuned/measured_ms"]["direction"] == "floor"
    # blackout_ms has no direction override: improvement past band fails
    assert named["E1_src_lan/tuned/blackout_ms"]["status"] == "out-of-band"
    slow = compare(make_doc(measured=1.0, blackout=119.3), [make_doc()],
                   tolerance=tol)
    named = {c["metric"]: c for c in slow["comparisons"]}
    assert named["E1_src_lan/tuned/measured_ms"]["status"] == "out-of-band"
    assert slow["verdict"] == "regression"


def test_identical_run_is_in_band():
    verdict = compare(make_doc(), [make_doc()])
    artifact.validate(verdict, REGRESS_SCHEMA)
    assert verdict["verdict"] == "ok"
    assert verdict["out_of_band"] == 0


def test_slowed_reconfiguration_detected_out_of_band():
    """ISSUE 5 acceptance: a deliberately slowed reconfiguration falls
    outside the tolerance band and the verdict is a regression."""
    slow = make_doc(measured=240.0, blackout=238.0)
    verdict = compare(slow, [make_doc()])
    artifact.validate(verdict, REGRESS_SCHEMA)
    assert verdict["verdict"] == "regression"
    bad = {c["metric"] for c in verdict["comparisons"]
           if c["status"] == "out-of-band"}
    assert "E1_src_lan/tuned/measured_ms" in bad
    assert "REGRESSION" in render_verdict(verdict)


def test_improvement_past_the_band_also_fails():
    # a stale baseline must be re-committed deliberately, not absorbed
    fast = make_doc(measured=10.0, blackout=9.0)
    verdict = compare(fast, [make_doc()])
    assert verdict["verdict"] == "regression"


def test_window_stdev_feeds_sigma_band():
    window = [make_doc(measured=m) for m in (100.0, 120.0, 140.0)]
    # mean 120, stdev 20: sigma=4 allows up to 200; rel=0.25 allows 150
    verdict = compare(make_doc(measured=195.0), window,
                      tolerance=Tolerance(rel=0.25, sigma=4.0))
    named = {c["metric"]: c for c in verdict["comparisons"]}
    assert named["E1_src_lan/tuned/measured_ms"]["status"] == "ok"


def test_embedded_repeat_stats_used_for_single_doc_window():
    baseline = make_doc(repeat={
        "runs": 5,
        "seeds": [0, 1, 2, 3, 4],
        "metrics": {"tuned/measured_ms": {"mean": 120.0, "stdev": 30.0}},
    })
    # sigma=4 * stdev=30 -> band [0, 240]; plain rel would reject 200
    verdict = compare(make_doc(measured=200.0), [baseline])
    named = {c["metric"]: c for c in verdict["comparisons"]}
    assert named["E1_src_lan/tuned/measured_ms"]["status"] == "ok"


def test_new_and_missing_metrics():
    current = make_doc()
    current["results"][0]["rows"].append(["greedy", 80.0, 75.0])
    baseline = make_doc()
    baseline["results"][0]["rows"].append(["legacy", 300.0, 290.0])
    verdict = compare(current, [baseline])
    statuses = {c["metric"]: c["status"] for c in verdict["comparisons"]}
    assert statuses["E1_src_lan/greedy/measured_ms"] == "new"
    assert statuses["E1_src_lan/legacy/measured_ms"] == "missing"
    assert verdict["verdict"] == "ok"  # neither fails by default
    strict = compare(current, [baseline], strict=True)
    assert strict["verdict"] == "regression"


# -- verdict artifact ------------------------------------------------------------------


def test_verdict_round_trip(tmp_path):
    verdict = compare(make_doc(measured=240.0), [make_doc()])
    path = tmp_path / "verdict.json"
    artifact.write(str(path), verdict)
    assert artifact.read(str(path), REGRESS_SCHEMA) == verdict


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema="bogus/1"),
        lambda d: d.update(verdict="maybe"),
        lambda d: d.update(out_of_band=0),  # no longer matches the count
        lambda d: d.update(baseline_runs=0),
        lambda d: d["comparisons"][0].update(status="weird"),
        lambda d: d["comparisons"][0].update(metric=""),
        lambda d: d["comparisons"][0].update(current="fast"),
    ],
)
def test_verdict_validator_rejects_malformed(mutate):
    verdict = compare(make_doc(measured=240.0), [make_doc()])
    broken = copy.deepcopy(verdict)
    mutate(broken)
    with pytest.raises(SchemaError):
        artifact.validate(broken, REGRESS_SCHEMA)


# -- the CLI gate ----------------------------------------------------------------------


def test_regress_cli_exits_nonzero_on_regression(tmp_path, capsys):
    from repro.obs.__main__ import main

    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "reconfiguration.json").write_text(json.dumps(make_doc()))
    current = tmp_path / "current.json"
    current.write_text(json.dumps(make_doc(measured=240.0)))
    verdict_path = tmp_path / "verdict.json"

    code = main([
        "regress",
        "--current", str(current),
        "--baseline", str(baseline_dir),
        "--out", str(verdict_path),
    ])
    assert code == 1
    assert artifact.read(str(verdict_path), REGRESS_SCHEMA)["verdict"] == "regression"
    assert "OUT OF BAND" in capsys.readouterr().out

    ok = main([
        "regress", "--current", str(current), "--baseline", str(baseline_dir),
        "--rel", "2.0",
    ])
    assert ok == 0
