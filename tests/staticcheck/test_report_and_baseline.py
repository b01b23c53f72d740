"""The repro.staticcheck/1 document and the suppression baseline."""

import copy
import json

import pytest

from repro.obs import artifact
from repro.obs.artifact import SchemaError
from repro.staticcheck import SCHEMA, Baseline, build_report, run_suite

VIOLATING = (
    "import time\n"
    "\n"
    "def deadline():\n"
    "    return time.time()\n"
)


def write_fixture_tree(tmp_path):
    """A tiny src-like tree with one violating hot-path module."""
    pkg = tmp_path / "src" / "repro" / "net"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "clock.py").write_text(VIOLATING)
    return tmp_path / "src"


def test_report_roundtrip_and_schema(tmp_path):
    root = write_fixture_tree(tmp_path)
    result = run_suite([root])
    assert [f.rule for f in result.findings] == ["RS101"]

    doc = build_report(result)
    artifact.validate(doc, SCHEMA)
    out = tmp_path / "report.json"
    artifact.write(str(out), doc)
    loaded = artifact.read(str(out), SCHEMA)
    assert loaded["schema"] == "repro.staticcheck/1"
    assert loaded["summary"]["ok"] is False
    assert loaded["summary"]["by_rule"] == {"RS101": 1}
    rule_ids = {r["id"] for r in loaded["rules"]}
    assert {"RS101", "RS203", "RS303", "RS402"} <= rule_ids


def test_report_is_byte_deterministic(tmp_path):
    root = write_fixture_tree(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    artifact.write(str(a), build_report(run_suite([root])))
    artifact.write(str(b), build_report(run_suite([root])))
    assert a.read_bytes() == b.read_bytes()


def test_validate_rejects_malformed_documents():
    with pytest.raises(SchemaError):
        artifact.validate({"schema": "nope"}, SCHEMA)
    with pytest.raises(SchemaError):
        artifact.validate([], SCHEMA)
    good = {
        "schema": "repro.staticcheck/1",
        "tool": "repro.staticcheck",
        "roots": [],
        "files_scanned": 0,
        "rules": [],
        "findings": [],
        "suppressed": [],
        "stale_suppressions": [],
        "summary": {"findings": 0, "suppressed": 0,
                    "stale_suppressions": 0, "by_rule": {}, "ok": True},
    }
    artifact.validate(good, SCHEMA)
    # findings must reference declared rules
    bad = dict(good, findings=[
        {"rule": "RS999", "path": "x.py", "line": 1, "col": 0, "message": "m"}])
    with pytest.raises(SchemaError, match=r"^\$\.findings\[0\]\.rule"):
        artifact.validate(bad, SCHEMA)
    # a clean document may not claim failure either
    bad = dict(good, summary=dict(good["summary"], ok=False))
    with pytest.raises(SchemaError, match=r"^\$\.summary\.ok"):
        artifact.validate(bad, SCHEMA)
    # the two keys older reports carried are ignored, not rejected
    artifact.validate(dict(good, cache={"enabled": False}, dataflow={}), SCHEMA)


@pytest.fixture
def failing_report(tmp_path):
    """A real report with an active, a suppressed and a stale entry."""
    root = write_fixture_tree(tmp_path)
    (root / "repro" / "net" / "late.py").write_text(VIOLATING)
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS201", "path": "src/repro/net/ghost.py",
             "justification": "fixture: no longer exists"},
        ],
    })
    doc = build_report(run_suite([root], baseline=baseline))
    assert doc["summary"] == {"findings": 1, "suppressed": 1, "stale_suppressions": 1,
                              "by_rule": {"RS101": 1}, "ok": False}
    return artifact.validate(doc, SCHEMA)


@pytest.mark.parametrize("key, lie", [
    ("findings", 0),
    ("suppressed", 2),
    ("stale_suppressions", 0),
    ("by_rule", {"RS101": 2}),
    ("by_rule", {}),
    ("ok", True),  # a failing run declared clean: the old validator let it through
], ids=["findings", "suppressed", "stale_suppressions", "by_rule-miscount", "by_rule-empty", "ok"])
def test_summary_must_be_a_recount(failing_report, key, lie):
    doc = copy.deepcopy(failing_report)
    doc["summary"][key] = lie
    with pytest.raises(SchemaError, match=rf"^\$\.summary\.{key}: "):
        artifact.validate(doc, SCHEMA)


def test_suppressed_findings_carry_their_justification(failing_report):
    doc = copy.deepcopy(failing_report)
    doc["suppressed"][0]["justification"] = ""
    with pytest.raises(SchemaError, match=r"^\$\.suppressed\[0\]\.justification"):
        artifact.validate(doc, SCHEMA)


def test_baseline_suppresses_and_reports_stale(tmp_path):
    root = write_fixture_tree(tmp_path)
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS201", "path": "src/repro/net/ghost.py",
             "justification": "fixture: no longer exists"},
        ],
    })
    result = run_suite([root], baseline=baseline)
    assert result.findings == []
    # a stale entry now fails the run: baselines may only shrink
    assert not result.ok
    assert [f.rule for f in result.suppressed] == ["RS101"]
    assert result.suppressed[0].justification == "fixture: grandfathered"
    assert [s["path"] for s in result.stale_suppressions] == ["src/repro/net/ghost.py"]


def test_out_of_scope_baseline_entries_are_not_stale(tmp_path):
    root = write_fixture_tree(tmp_path)
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS201", "path": "benchmarks/other.py",
             "justification": "different scan root: not this run's business"},
        ],
    })
    result = run_suite([root], baseline=baseline)
    assert result.stale_suppressions == []
    assert result.ok

    # a rule outside --select is equally out of scope
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS201", "path": "src/repro/net/clock.py",
             "justification": "purity rule not selected in this run"},
        ],
    })
    result = run_suite([root], baseline=baseline, select=["RS4"])
    assert result.stale_suppressions == []


def test_baseline_path_matching_is_suffix_tolerant(tmp_path):
    root = write_fixture_tree(tmp_path)
    # scan rooted *inside* src: findings carry absolute-ish paths, but the
    # repo-root-relative baseline entry still matches
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture"},
        ],
    })
    result = run_suite([root / "repro" / "net"], baseline=baseline)
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [{"rule": "RS101", "path": "x.py", "justification": " "}],
    }))
    with pytest.raises(SchemaError, match=r"^\$\.suppressions\[0\]\.justification"):
        Baseline.load(path)
    path.write_text("not json")
    with pytest.raises(ValueError):
        Baseline.load(path)
    path.write_text(json.dumps({"schema": "wrong/1", "suppressions": []}))
    with pytest.raises(SchemaError, match=r"^\$\.schema"):
        Baseline.load(path)


def test_parse_error_is_an_active_finding_even_with_baseline(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def f(:\n")
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS000", "path": "src/broken.py", "justification": "nope"},
        ],
    })
    result = run_suite([pkg], baseline=baseline)
    assert [f.rule for f in result.findings] == ["RS000"]
    assert not result.ok
