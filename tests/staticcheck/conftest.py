"""One scan of the real tree for every test that reads the CI gate's verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def run_cli(*args, cwd=REPO_ROOT, module="repro.staticcheck"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture(scope="session")
def gate(tmp_path_factory):
    """The CI gate's own invocation, run once: ``(process, report path)``."""
    out = tmp_path_factory.mktemp("gate") / "report.json"
    return run_cli("src", "--json", str(out)), out
