"""The bench-regression gate of ``benchmarks/regress.py``: flatten, diff
exactly, gate."""

import copy
import json
import math
import os

import pytest

from benchmarks.regress import BASELINES, compare, main, metrics_of, read_baseline, render_verdict
from repro.obs.artifact import SchemaError
from repro.obs.export import bench_document, bench_result
#: the benches CI's bench-gate job runs; nothing else lives in BASELINES
GATED = ("engine_speed", "inband_overhead", "reconfiguration", "scaling", "traffic_slo")


def make_doc(measured=120.0, blackout=119.3, seed=0, host=None):
    telemetry = {"sim_ns": 3_000_000_000}
    if host is not None:
        telemetry["host"] = host
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


def statuses(verdict):
    return {c["metric"]: c["status"] for c in verdict["comparisons"]}


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


def test_nested_host_telemetry_is_never_flattened():
    """Host-time numbers leave the gate by where a bench puts them."""
    here = make_doc(host={"wall_ms": 812.0, "events_per_sec": 170_000.0})
    there = make_doc(host={"wall_ms": 95.0, "events_per_sec": 1_400_000.0})
    assert metrics_of(here) == metrics_of(there) == metrics_of(make_doc())
    assert compare(here, there)["failing"] == 0


def test_duplicate_row_key_is_a_schema_error():
    """Two rows sharing a first cell used to overwrite each other, so a
    gated metric could vanish without a ``missing`` verdict."""
    doc = make_doc()
    doc["results"][0]["rows"] = [["tuned", 120.0, 119.3], ["naive", 1.0, 1.0], ["tuned", 5.0, 5.0]]
    with pytest.raises(SchemaError, match=r"\$\.results\[0\]\.rows\[2\]"):
        metrics_of(doc)
    with pytest.raises(SchemaError):
        compare(make_doc(), doc)


def test_read_baseline_resolves_dir_and_file(tmp_path):
    """``<dir>/<bench>.json``, which must exist and hold that bench."""
    (tmp_path / "reconfiguration.json").write_text(json.dumps(make_doc()))
    assert read_baseline(str(tmp_path), "reconfiguration") == make_doc()
    with pytest.raises(FileNotFoundError):
        read_baseline(str(tmp_path), "scaling")
    (tmp_path / "other-bench.json").write_text(json.dumps(make_doc()))
    with pytest.raises(ValueError):
        read_baseline(str(tmp_path), "other-bench")


# -- compare ---------------------------------------------------------------------------


def test_identical_run_is_in_band():
    """The band is zero wide: an identical run is the only one that passes."""
    verdict = compare(make_doc(), make_doc())
    assert verdict["failing"] == 0
    assert set(statuses(verdict).values()) == {"ok"}
    assert render_verdict(verdict).startswith("regress reconfiguration: OK (0 failing of 3")


def test_slowed_reconfiguration_detected_out_of_band():
    """ISSUE 5 acceptance: a deliberately slowed reconfiguration is a
    regression, and the verdict names the metric."""
    verdict = compare(make_doc(measured=240.0, blackout=238.0), make_doc())
    assert verdict["failing"] == 2
    assert statuses(verdict)["E1_src_lan/tuned/measured_ms"] == "changed"
    text = render_verdict(verdict)
    assert "REGRESSION" in text and "CHANGED E1_src_lan/tuned/measured_ms" in text


def test_improvement_past_the_band_also_fails():
    # a stale baseline must be re-committed deliberately, not absorbed
    verdict = compare(make_doc(measured=10.0, blackout=9.0), make_doc())
    assert verdict["failing"] == 2


@pytest.mark.parametrize(
    "nudged",
    [math.nextafter(120.0, math.inf), math.nextafter(120.0, -math.inf), 121.0, 119.0],
    ids=["ulp-up", "ulp-down", "unit-up", "unit-down"],
)
def test_one_ulp_or_one_unit_off_is_a_regression(nudged):
    verdict = compare(make_doc(measured=nudged), make_doc())
    assert verdict["failing"] == 1
    assert statuses(verdict)["E1_src_lan/tuned/measured_ms"] == "changed"


def test_new_and_missing_metrics():
    """A metric the baseline lacks is reported and passes; one the
    current run lost fails."""
    grown = make_doc()
    grown["results"][0]["rows"].append(["greedy", 80.0, 75.0])
    verdict = compare(grown, make_doc())
    assert statuses(verdict)["E1_src_lan/greedy/measured_ms"] == "new"
    assert verdict["failing"] == 0
    assert "new metric E1_src_lan/greedy/measured_ms" in render_verdict(verdict)

    verdict = compare(make_doc(), grown)
    assert statuses(verdict)["E1_src_lan/greedy/measured_ms"] == "missing"
    assert verdict["failing"] == 2
    assert "MISSING E1_src_lan/greedy/blackout_ms" in render_verdict(verdict)


def _cells(doc):
    """(metric name, container, key) of every table cell and top-level
    telemetry value of ``doc``."""
    for result in doc["results"]:
        for row in result["rows"]:
            for k, header in enumerate(result["headers"][1:], start=1):
                yield f"{result['name']}/{row[0]}/{header}", row, k
        for key in result.get("telemetry") or {}:
            yield f"{result['name']}/telemetry/{key}", result["telemetry"], key


@pytest.mark.parametrize("bench", GATED)
def test_committed_baselines_gate_by_equality(bench):
    """Every committed baseline passes against itself, and flipping any
    one of its metrics by 1 fails the gate."""
    baseline = read_baseline(BASELINES, bench)
    gated = metrics_of(baseline)
    assert gated, "a baseline that gates nothing"
    assert compare(baseline, baseline)["failing"] == 0
    flipped = copy.deepcopy(baseline)
    for name, container, key in _cells(flipped):
        if name in gated:
            original, container[key] = container[key], gated[name] + 1
            assert compare(flipped, baseline)["failing"] == 1, name
            container[key] = original
    assert flipped == baseline


def test_every_baseline_file_is_gated():
    assert sorted(os.listdir(BASELINES)) == [f"{bench}.json" for bench in GATED]


# -- the CLI gate ----------------------------------------------------------------------


def test_regress_cli_exits_nonzero_on_regression(tmp_path, capsys):
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "reconfiguration.json").write_text(json.dumps(make_doc()))
    current = tmp_path / "current.json"
    current.write_text(json.dumps(make_doc(measured=240.0)))

    argv = [str(current), str(baseline_dir)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "regress reconfiguration: REGRESSION" in out and "CHANGED" in out

    current.write_text(json.dumps(make_doc()))
    assert main(argv) == 0
    assert "regress reconfiguration: OK" in capsys.readouterr().out
    # the tolerance knobs are gone, not ignored; nor is a third argument
    assert main(argv + ["--rel", "2.0"]) == 2
    assert main([*argv, "more"]) == 2
    assert main([]) == 2
