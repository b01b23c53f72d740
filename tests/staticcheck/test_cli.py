"""End-to-end CLI tests: the repo gates itself with its own linter."""

import json

from tests.staticcheck.conftest import REPO_ROOT, SRC, run_cli

VIOLATING = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)


def test_repo_src_passes_with_baseline(gate):
    """The merged tree is clean: the CI gate invariant."""
    proc, _ = gate
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "staticcheck OK" in proc.stdout


def test_repo_has_baselined_findings_not_hidden_ones():
    """--no-baseline exposes exactly the grandfathered findings."""
    proc = run_cli("src", "--no-baseline")
    assert proc.returncode == 1
    # the known intentional exceptions: profiler wall-clock + serializers
    assert "RS101" in proc.stdout
    assert "RS201" in proc.stdout


def test_violating_fixture_fails_with_rule_ids(tmp_path):
    bad = tmp_path / "src" / "repro" / "net"
    bad.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (bad / "__init__.py").write_text("")
    (bad / "noise.py").write_text(VIOLATING)
    out = tmp_path / "report.json"
    proc = run_cli(str(tmp_path / "src"), "--no-baseline", "--json", str(out))
    assert proc.returncode == 1
    assert "RS102" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.staticcheck/1"
    assert doc["summary"]["by_rule"] == {"RS102": 1}


def test_json_report_written_for_clean_run(gate):
    proc, out = gate
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["ok"] is True
    assert doc["summary"]["suppressed"] > 0
    assert doc["files_scanned"] > 50
    # suppressed findings all carry their justification from the baseline
    assert all(f.get("justification") for f in doc["suppressed"])
    # the report and the committed baseline are ordinary repro.*/1 artifacts
    baseline = REPO_ROOT / "staticcheck-baseline.json"
    proc = run_cli("validate", str(out), str(baseline), module="repro.obs")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{out}: valid repro.staticcheck/1",
        f"{baseline}: valid repro.staticcheck-baseline/1",
    ]


#: directories the interpreter, git and the test runner themselves write to
SCRATCH_DIRS = {"__pycache__", ".git", ".pytest_cache", ".hypothesis"}


def tree_listing(root):
    return sorted(str(p) for p in root.rglob("*") if not SCRATCH_DIRS & set(p.parts))


def test_runs_from_any_cwd_and_writes_nothing(tmp_path):
    """Run from elsewhere, the gate gives the same verdict and leaves no
    file behind -- not in the CWD, not in the checkout."""
    before = tree_listing(REPO_ROOT)
    proc = run_cli(str(SRC), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " baselined" in proc.stdout
    assert list(tmp_path.iterdir()) == []
    assert tree_listing(REPO_ROOT) == before


def test_select_filters_rules(tmp_path):
    bad = tmp_path / "mixed.py"
    bad.write_text(
        "import time\n"
        "def f(x=[]):\n"
        "    return time.time()\n"
    )
    only_hygiene = run_cli(str(bad), "--no-baseline", "--select", "RS4")
    assert only_hygiene.returncode == 1
    assert "RS401" in only_hygiene.stdout
    assert "RS101" not in only_hygiene.stdout


def test_list_rules_covers_all_families():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()
              if line.startswith("RS")]
    assert listed == [
        "RS000",
        "RS101", "RS102", "RS103", "RS104", "RS105",
        "RS201", "RS202", "RS203",
        "RS301", "RS302", "RS303", "RS304", "RS305", "RS306",
        "RS401", "RS402",
    ]


def test_missing_path_is_usage_error():
    proc = run_cli("definitely/not/here")
    assert proc.returncode == 2


def write_violating_tree(tmp_path):
    bad = tmp_path / "src" / "repro" / "net"
    bad.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (bad / "__init__.py").write_text("")
    (bad / "noise.py").write_text(VIOLATING)
    return tmp_path / "src"


def test_github_format_emits_error_annotations(tmp_path):
    root = write_violating_tree(tmp_path)
    proc = run_cli(str(root), "--no-baseline", "--format", "github")
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "title=RS102" in proc.stdout
    assert "staticcheck FAIL" in proc.stdout


def test_stale_baseline_entry_fails_and_prunes(tmp_path):
    root = write_violating_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS102", "path": "src/repro/net/noise.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS101", "path": "src/repro/net/gone.py",
             "justification": "fixture: fixed long ago"},
        ],
    }))
    common = (str(root), "--baseline", str(baseline))

    stale = run_cli(*common)
    assert stale.returncode == 1
    assert "stale baseline entry" in stale.stdout

    pruned = run_cli(*common, "--prune-baseline")
    assert pruned.returncode == 0, pruned.stdout + pruned.stderr
    assert "pruned 1 stale baseline entry" in pruned.stdout
    doc = json.loads(baseline.read_text())
    assert [s["path"] for s in doc["suppressions"]] == [
        "src/repro/net/noise.py"]

    # with the dead entry gone the same invocation is clean
    clean = run_cli(*common)
    assert clean.returncode == 0


def test_malformed_baseline_is_a_usage_error_naming_the_entry(tmp_path):
    root = write_violating_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS102", "path": "src/repro/net/noise.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS101", "path": "src/repro/net/gone.py",
             "justification": "  "},
        ],
    }))
    proc = run_cli(str(root), "--baseline", str(baseline))
    assert proc.returncode == 2
    assert "$.suppressions[1].justification" in proc.stderr


def test_tests_and_benchmarks_pass_hygiene_gate():
    """The CI step added for this repo's own tests/ and benchmarks/."""
    proc = run_cli("tests", "benchmarks", "--select", "RS4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
