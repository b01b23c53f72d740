"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` (about 15 s); the
tier-1 suite does not collect this directory.  The smoke run uses
``--quick`` sizes, so it checks the plumbing -- every workload runs, every
name is declared, every handler maps to a layer -- not the numbers.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import estimators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=300)


def _has_row(stdout, *words):
    return any(all(word in line.split() for word in words) for line in stdout.splitlines())


@pytest.fixture(scope="module")
def manifest():
    return run.load_manifest()


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    """One ``--quick`` run of all six workloads, shared by the smoke tests."""
    out = tmp_path_factory.mktemp("e2e")
    proc = _run("--quick", "--rounds", "2", "--seed", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out / "e2e-result.json") as fh:
        return {"doc": json.load(fh), "out": out, "stdout": proc.stdout}


# -- BENCHMARK.json ----------------------------------------------------------------


def test_manifest_meets_the_harness_contract(manifest):
    assert sorted(manifest) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert all(sorted(w) == ["name", "why"] and len(w["why"]) <= 200 for w in manifest["workloads"])
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.HOST_METRICS)
    for metric in manifest["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert all(sorted(m) == ["better", "name", "unit"] for m in manifest["per_layer"])
    assert 1 <= manifest["run_seconds"] <= 60


# -- the smoke run ------------------------------------------------------------------


def test_quick_smoke_runs_all_six_workloads(quick_result, manifest):
    doc = quick_result["doc"]
    assert doc["schema"] == run.RESULT_SCHEMA
    assert sorted(doc["workloads"]) == sorted(workloads.WORKLOAD_NAMES)
    declared_e2e = {m["name"] for m in manifest["end_to_end"]}
    declared_layers = {m["name"] for m in manifest["per_layer"]}
    for name, entry in doc["workloads"].items():
        assert entry["correct"], (name, entry["notes"])
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert set(entry["end_to_end"]) == declared_e2e
        assert set(entry["per_layer"]) == declared_layers
        assert all(row["value"] > 0 for row in entry["end_to_end"].values())
        assert len(entry["fingerprint"]) == 64


def test_every_metric_is_printed_by_name_with_its_unit(quick_result, manifest):
    stdout = quick_result["stdout"]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in stdout.splitlines()
        ), metric["name"]
    # the noise report: n, min, lower quartile, median, max beside the value
    assert "lq" in stdout and "median" in stdout


def test_every_handler_module_maps_to_a_layer(quick_result):
    for name, entry in quick_result["doc"]["workloads"].items():
        assert entry["per_layer"]["bench.other_share"]["value"] < 0.01, name
        assert entry["per_layer"]["sim.events"]["value"] > 0, name


def test_workloads_isolate_the_layers_they_were_chosen_for(quick_result):
    layers = {n: e["per_layer"] for n, e in quick_result["doc"]["workloads"].items()}
    assert layers["steady_srclan"]["core.route_build.calls"]["value"] == 0
    assert layers["reconfig_srclan"]["core.route_build.calls"]["value"] > 0
    assert layers["dataplane_torus"]["host.packets_received"]["value"] > 0
    assert layers["reconfig_srclan"]["host.events"]["value"] == 0
    assert layers["chaos_torus"]["analysis.check.calls"]["value"] > 0
    assert layers["traffic_srclan"]["traffic.solve.calls"]["value"] > 0
    assert layers["dataplane_torus"]["traffic.events"]["value"] == 0
    assert layers["observed_torus"]["obs.artifact_bytes"]["value"] > 0
    assert layers["dataplane_torus"]["obs.flight_records"]["value"] == 0


def test_span_file_links_children_to_parents(quick_result):
    with open(quick_result["out"] / "spans-chaos_torus.json") as fh:
        doc = json.load(fh)
    assert doc["schema"] == "bench_e2e.spans/1" and doc["workload"] == "chaos_torus"
    names = {row[0] for row in doc["spans"]}
    assert {"CampaignRunner.run_schedule", "Simulator.run", "Network.converged"} <= names
    for _name, start, end, parent in doc["spans"]:
        assert end >= start
        if parent >= 0:
            assert doc["spans"][parent][1] <= start and end <= doc["spans"][parent][2]


def test_compare_of_a_result_with_itself_is_all_ok(quick_result):
    path = str(quick_result["out"] / "e2e-result.json")
    proc = _run("--compare", path, path)
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout and "DIFFERS" not in proc.stdout
    assert proc.stdout.count("modelled fingerprint identical") == len(workloads.WORKLOAD_NAMES)


def test_compare_flags_worse_and_unresolved(quick_result, tmp_path):
    base = copy.deepcopy(quick_result["doc"])
    for entry in base["workloads"].values():
        for row in entry["end_to_end"].values():  # a noiseless baseline
            row.update(min=row["value"], lower_quartile=row["value"])
    slow = copy.deepcopy(base)
    slow["workloads"]["steady_srclan"]["end_to_end"]["wall_s"]["value"] *= 1.5
    slow["workloads"]["steady_srclan"]["fingerprint"] = "0" * 64
    noisy = copy.deepcopy(base)
    noisy["workloads"]["chaos_torus"]["end_to_end"]["cpu_s"]["min"] *= 0.5
    paths = {}
    for label, doc in (("base", base), ("slow", slow), ("noisy", noisy)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(doc))
    proc = _run("--compare", str(paths["base"]), str(paths["slow"]))
    assert proc.returncode == 1
    assert _has_row(proc.stdout, "steady_srclan", "wall_s", "worse")
    assert "steady_srclan     modelled fingerprint DIFFERS" in proc.stdout
    proc = _run("--compare", str(paths["base"]), str(paths["noisy"]))
    assert proc.returncode == 0
    assert _has_row(proc.stdout, "chaos_torus", "cpu_s", "unresolved")


# -- the harness contract -----------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_prints_one_json_object_last(manifest, trace):
    workload = ["--workload", "steady_srclan", "--quick"]
    proc = _run(*workload, "--seed", "9", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = manifest["per_layer"] if trace else manifest["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    assert not list((HERE / "out").glob("run-*")), "the run's scratch directory must be removed"


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for name in workloads.WORKLOAD_NAMES:
        assert workloads.make_inputs(name, 4) == workloads.make_inputs(name, 4)
        assert workloads.make_inputs(name, 4) != workloads.make_inputs(name, 5)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_srclan", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- estimators and fingerprint -----------------------------------------------------


def test_lower_quartile_is_second_smallest_of_five_to_eight():
    for n in (5, 6, 7, 8):
        values = [10.0 + i for i in range(n)]
        assert estimators.lower_quartile(list(reversed(values))) == 11.0
    assert estimators.lower_quartile([3.0, 1.0, 2.0]) == 1.0
    assert estimators.lower_quartile([4.0]) == 4.0
    with pytest.raises(ValueError):
        estimators.lower_quartile([])


def test_lower_quartile_ignores_one_sided_noise():
    quiet = [1.00, 1.01, 1.02, 1.01, 1.00, 1.02, 1.01]
    loaded = [1.00, 1.01, 1.9, 1.6, 1.01, 2.4, 1.5]  # contention only adds time
    assert estimators.lower_quartile(loaded) == pytest.approx(
        estimators.lower_quartile(quiet), rel=0.02
    )


def test_nearest_rank_percentiles_and_noise_summary():
    values = list(range(1, 101))
    assert estimators.nearest_rank(values, 0.5) == 50
    assert estimators.nearest_rank(values, 0.99) == 99
    assert estimators.nearest_rank(values, 1.0) == 100
    with pytest.raises(ValueError):
        estimators.nearest_rank(values, 0.0)
    summary = estimators.noise_summary([3.0, 1.0, 2.0, 5.0, 4.0])
    assert summary == {"n": 5, "min": 1.0, "lower_quartile": 2.0, "median": 3.0, "max": 5.0}


def test_fingerprint_canonicalisation():
    a = {"epochs": [[3, 115545200], [4, 113525600]], "ok": True, "p50_ns": None}
    b = {"p50_ns": None, "ok": True, "epochs": [[3, 115545200], [4, 113525600]]}
    assert estimators.canonical_json(a) == estimators.canonical_json(b)
    assert " " not in estimators.canonical_json(a)
    assert estimators.fingerprint(a) == estimators.fingerprint(b)
    assert estimators.fingerprint(a) != estimators.fingerprint({**a, "ok": False})
    assert estimators.fingerprint({"v": 1}) != estimators.fingerprint({"v": 1.5})
    with pytest.raises(ValueError):
        estimators.fingerprint({"v": math.nan})


# -- tracing ------------------------------------------------------------------------


def test_layer_classifier():
    assert tracing.layer_of("repro.net.fifo") == "net"
    assert tracing.layer_of("repro.core.reconfig") == "core"
    assert tracing.layer_of("repro.sim.timers") == "sim"
    assert tracing.layer_of("repro.network") == "network"
    assert tracing.layer_of("repro.scenario") == "other"
    assert tracing.layer_of("json.decoder") == "other"
    assert tracing.layer_of(None) == "other"


def test_profiler_folds_closures_and_bound_methods_by_code():
    def make():
        def compute_and_load():
            return None

        return compute_and_load

    class Fifo:
        def _on_boundary(self):
            return None

    profiler = tracing.LayerProfiler()
    for _ in range(3):
        profiler.account_call(make(), 100)  # a fresh closure object every time
    profiler.account_call(Fifo()._on_boundary, 50)
    profiler.account_call(Fifo()._on_boundary, 50)
    profiler.account_call(len, 7)  # a builtin has no code object
    rows = sorted((q, n, ns) for n, ns, _m, q in profiler.handlers.values())
    assert [(n, ns) for _q, n, ns in rows if "compute_and_load" in _q] == [(3, 300)]
    assert [(n, ns) for _q, n, ns in rows if "_on_boundary" in _q] == [(2, 100)]
    assert profiler.by_layer() == {"other": (6, 407)}


def test_span_self_time_is_duration_minus_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [
        ["run_schedule", 0, 100, -1],
        ["Simulator.run", 10, 50, 0],
        ["quiescent_checks", 60, 90, 0],
        ["check_partition_routing", 65, 85, 2],
    ]
    assert recorder.self_time(["run_schedule"]) == 100 - 40 - 30
    assert recorder.self_time(["quiescent_checks"]) == 10
    assert recorder.total(tracing.CHECK_SPANS) == (2, 50)
    assert recorder.total(tracing.CHECK_SPANS, outermost=True) == (2, 30)


def test_span_wrapper_records_nesting_and_survives_exceptions():
    recorder = tracing.SpanRecorder()

    def inner():
        raise KeyError("boom")

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        try:
            wrapped_inner()
        except KeyError:
            return "recovered"

    assert recorder.wrap("outer", outer)() == "recovered"
    assert [(s[0], s[3]) for s in recorder.spans] == [("outer", -1), ("inner", 0)]
    assert all(s[2] >= s[1] > 0 for s in recorder.spans)
