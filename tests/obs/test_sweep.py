"""The scaling sweep harness and the repro.obs.sweep/1 artifact."""

import copy
import json
import math

import pytest

from repro.obs import artifact
from repro.obs.artifact import SchemaError
from repro.obs.sweep import (
    LADDERS,
    REQUIRED_METRICS,
    SWEEP_METRICS,
    SWEEP_SCHEMA,
    SweepPoint,
    fit_slope,
    fit_slopes,
    render_sweep,
    run_point,
    run_sweep,
)


# -- SweepPoint ------------------------------------------------------------------------


def test_point_rejects_unknown_metric():
    point = SweepPoint("torus-3x4", switches=12, links=24)
    point.set_metric("blackout_ns", 5.0)
    with pytest.raises(ValueError, match="unknown sweep metric"):
        point.set_metric("made_up_series", 1.0)


def test_skipped_point_serialization():
    point = SweepPoint("torus-32x32", switches=1024, links=2048)
    point.skip("too big")
    doc = point.to_dict()
    assert doc["status"] == "skipped" and doc["skip_reason"] == "too big"


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
    points = []
    for n in (4, 8, 16):
        p = SweepPoint(f"t{n}", switches=n, links=n)
        p.set_metric("blackout_ns", float(n * n))
        points.append(p)
    skipped = SweepPoint("big", switches=999, links=999)
    skipped.skip("ceiling")
    slopes = fit_slopes(points + [skipped])
    assert slopes["blackout_ns"]["slope"] == pytest.approx(2.0, abs=1e-6)
    assert "converge_ns" not in slopes  # never set on any point


# -- running points --------------------------------------------------------------------


def test_oversized_point_is_skipped_with_reason():
    point = run_point("torus-16x16", seed=0)
    assert point.status == "skipped"
    assert "126-switch" in point.skip_reason
    assert point.metrics == {}
    assert point.switches == 256


def test_run_point_is_deterministic():
    a = run_point("ring-4", seed=3)
    b = run_point("ring-4", seed=3)
    assert a.status == "ok"
    # traffic_* metrics appear only on traffic-enabled sweeps
    assert not any(m.startswith("traffic_") for m in a.metrics)
    sim_metrics = [
        m for m in SWEEP_METRICS if m != "events_per_sec" and m in a.metrics
    ]
    assert {m: a.metrics[m] for m in sim_metrics} == {
        m: b.metrics[m] for m in sim_metrics
    }
    assert a.metrics["control_packets"] > 0
    assert a.metrics["blackout_ns"] > 0


def test_run_point_with_traffic_is_observational():
    plain = run_point("ring-4", seed=3)
    loaded = run_point("ring-4", seed=3, traffic=True)
    assert loaded.status == "ok"
    assert loaded.metrics["traffic_blackout_cost_bytes"] >= 0
    assert loaded.metrics["traffic_goodput_bytes_per_sec"] > 0
    # the workload rides along without touching the core trajectory
    for metric in ("converge_ns", "reconfig_ns", "blackout_ns"):
        assert loaded.metrics[metric] == plain.metrics[metric]


def test_run_sweep_custom_ladder_validates():
    doc = run_sweep(ladder="custom", seed=1, topologies=["ring-4", "torus-16x16"])
    assert doc["schema"] == "repro.obs.sweep/1"
    statuses = {p["name"]: p["status"] for p in doc["points"]}
    assert statuses == {"ring-4": "ok", "torus-16x16": "skipped"}
    ok = [p for p in doc["points"] if p["status"] == "ok"]
    for point in ok:
        for metric in REQUIRED_METRICS:
            assert metric in point["metrics"]


def test_run_sweep_rejects_unknown_ladder():
    with pytest.raises(ValueError, match="unknown ladder"):
        run_sweep(ladder="nope")


def test_ladders_cover_the_issue_families():
    assert len(LADDERS["smoke"]) >= 4
    assert any(name.startswith("fat-tree") for name in LADDERS["full"])
    assert any(name.startswith("dcell") for name in LADDERS["full"])
    # the scale ladder names the beyond-ceiling points explicitly
    assert "torus-32x32" in LADDERS["scale"]


# -- validator rejections --------------------------------------------------------------


def valid_doc():
    return {
        "schema": "repro.obs.sweep/1",
        "ladder": "smoke",
        "seed": 0,
        "scenario": "test",
        "metrics": ["blackout_ns", "converge_ns"],
        "points": [
            {
                "name": "ring-4",
                "switches": 4,
                "links": 4,
                "status": "ok",
                "metrics": {
                    "converge_ns": 1.0,
                    "reconfig_ns": 2.0,
                    "blackout_ns": 3.0,
                    "control_packets": 4,
                    "control_bytes": 5,
                },
            },
            {
                "name": "torus-32x32",
                "switches": 1024,
                "links": 2048,
                "status": "skipped",
                "skip_reason": "address ceiling",
                "metrics": {},
            },
        ],
        "slopes": {"blackout_ns": {"slope": 1.2, "r2": 0.9, "points": 4}},
    }


def test_validator_accepts_and_returns_doc():
    doc = valid_doc()
    assert artifact.validate(doc, SWEEP_SCHEMA) is doc


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d.update(schema="repro.obs.sweep/2"), "schema"),
        (lambda d: d.update(ladder=""), "ladder"),
        (lambda d: d.update(seed="0"), "seed"),
        (lambda d: d.update(metrics=["nonsense"]), "metrics"),
        (lambda d: d.update(points=[]), "points"),
        (lambda d: d["points"][0].update(status="maybe"), "status"),
        (lambda d: d["points"][0].update(switches=-1), "switches"),
        (lambda d: d["points"][0]["metrics"].update(bogus=1.0), "unknown metric"),
        (lambda d: d["points"][0]["metrics"].pop("blackout_ns"), "missing"),
        (lambda d: d["points"][1].pop("skip_reason"), "skip_reason"),
        (lambda d: d["slopes"].update(blackout_ns={"slope": 1.0}), "slopes"),
        (lambda d: d["slopes"]["blackout_ns"].update(points=1), "points"),
    ],
)
def test_validator_rejections(mutate, where):
    doc = copy.deepcopy(valid_doc())
    mutate(doc)
    with pytest.raises(SchemaError):
        artifact.validate(doc, SWEEP_SCHEMA)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    doc = valid_doc()
    artifact.write(str(path), doc)
    again = artifact.read(str(path), SWEEP_SCHEMA)
    assert again == doc
    # the artifact is plain indented JSON with a trailing newline
    text = path.read_text()
    assert text.endswith("\n") and json.loads(text) == doc


def test_write_refuses_invalid(tmp_path):
    doc = valid_doc()
    doc["points"] = []
    with pytest.raises(SchemaError):
        artifact.write(str(tmp_path / "bad.json"), doc)
    assert not (tmp_path / "bad.json").exists()


# -- rendering -------------------------------------------------------------------------


def test_render_sweep_mentions_every_point_and_slope():
    text = render_sweep(valid_doc())
    assert "ring-4" in text
    assert "torus-32x32" in text and "address ceiling" in text
    assert "blackout_ns" in text and "+1.200" in text


def test_doctor_sweep_report_renders():
    text = artifact.render(valid_doc())
    assert text.startswith("scaling sweep:")
    with pytest.raises(SchemaError):
        artifact.render({"schema": "nope"})


# -- the CLI ---------------------------------------------------------------------------


def test_cli_sweep_writes_artifact(tmp_path, capsys):
    from repro.obs.__main__ import main

    out = tmp_path / "sweep.json"
    code = main([
        "sweep", "--topo", "ring-4", "--topo", "torus-16x16",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    doc = artifact.read(str(out), SWEEP_SCHEMA)
    assert {p["name"] for p in doc["points"]} == {"ring-4", "torus-16x16"}
    assert "scaling sweep" in capsys.readouterr().out


def test_cli_sweep_creates_the_output_directory(tmp_path):
    """``--out newdir/s.json`` used to die with FileNotFoundError: the
    sweep writer was the one that did not create its parent directory."""
    from repro.obs.__main__ import main

    out = tmp_path / "newdir" / "s.json"
    assert main(["sweep", "--topo", "torus-16x16", "--out", str(out)]) == 0
    assert artifact.read(str(out), SWEEP_SCHEMA)["points"][0]["status"] == "skipped"


def test_cli_no_subcommand_lists_topologies(capsys):
    from repro.obs.__main__ import main

    assert main([]) == 2
    err = capsys.readouterr().err
    assert "sweep" in err
    assert "fat-tree-4" in err and "dcell-3l1" in err and "torus-3x4" in err


def test_math_slope_matches_numpyless_reference():
    """The least-squares fit agrees with the closed form on a tiny case."""
    pts = [(2.0, 8.0), (4.0, 64.0)]  # y = x^3
    fit = fit_slope(pts)
    assert fit["slope"] == pytest.approx(3.0, abs=1e-9)
    assert math.isfinite(fit["r2"])
