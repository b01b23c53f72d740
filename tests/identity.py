#!/usr/bin/env python3
"""The identity manifest: one sha256 per artifact that a change must not
move unless it says why.

``ROWS`` is the whole gate: a row name and a producer that builds the
artifact from its seed and returns the sha256 of its bytes.  ::

    python tests/identity.py

prints the manifest, ``{row: sha256}`` with sorted keys, on stdout.  When
it differs from the committed ``tests/fixtures/identity.json``, each
moved row is named on stderr and the exit status is 1.  To re-baseline,
redirect stdout over the fixture and commit it with the reason the rows
moved (the shell empties the fixture before the script reads it, so that
run names every row on stderr and exits 1).

The rows, all computed in this one process under the caller's
``PYTHONHASHSEED`` (CI runs it under ``0`` and ``random``):

* ``e2e/<workload>`` -- one seed-0 round of each ``benchmarks/e2e``
  workload through ``run.py --child`` (which inherits the hash seed); its
  modelled fingerprint already is the sha256 of the round's canonical
  model JSON;
* ``trace/<scenario>`` -- every autopilot's ``TraceLog``
  (``tests.checkers.trace_digest``) after ``tests/test_determinism.py``'s
  seed-42 run and after each scenario of
  ``tests/core/test_sampler_oracle.py``;
* ``obs-run/<topo>.<kind>.json`` -- the observer documents of ``python -m
  repro.obs run --topo <topo> --cut 0-1`` (its ``.bench.json`` holds host
  times and is no row);
* ``chaos/<topo>_seed<n>`` -- the ``--json`` summary of ``python -m
  repro.chaos``; ``chaos/torus-3x4_seed0`` is CI's smoke campaign, whose
  document is also committed in full;
* ``traffic/src-lan-30_default`` -- the document of ``python -m
  repro.traffic run``, also committed in full.

Tier-1 (``tests/test_identity.py``) computes every row but ``CI_ONLY``.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
sys.path.append(str(E2E))

import workloads  # noqa: E402  (benchmarks/e2e's; read, never changed)

from repro.chaos.__main__ import main as chaos_main  # noqa: E402
from repro.obs.__main__ import main as obs_main  # noqa: E402
from repro.traffic.__main__ import main as traffic_main  # noqa: E402
from tests.checkers import trace_digest  # noqa: E402
from tests.core.test_sampler_oracle import SCENARIOS  # noqa: E402
from tests.test_determinism import run_once  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "identity.json"
#: the documents of ``repro.obs run`` that are rows (``bench`` holds host times)
OBS_KINDS = ("inband", "timeseries", "trace")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _quietly(main, argv):
    """Run a ``python -m`` entry point in this process, its report swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)


def e2e(workload):
    """The modelled fingerprint of one seed-0 round, as ``run.py`` spawns
    it (``run.py`` pins its own children to hash seed 0; this one does not)."""
    with tempfile.TemporaryDirectory() as out:
        spec = {
            "workload": workload,
            "inputs": workloads.make_inputs(workload, 0),
            "trace": False,
            "round": workload,
            "out_dir": out,
            "spans_path": "",
            "spawned_at": time.monotonic(),
        }
        child = subprocess.run(
            [sys.executable, str(E2E / "run.py"), "--child"],
            input=json.dumps(spec), capture_output=True, text=True, check=True, cwd=str(ROOT),
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
    return json.loads(child.stdout.strip().splitlines()[-1])["fingerprint"]


@functools.lru_cache(maxsize=None)
def obs_run(topo):
    """The sha256 of each observer document of one ``run``, by kind."""
    with tempfile.TemporaryDirectory() as out:
        _quietly(obs_main, ["run", "--topo", topo, "--cut", "0-1", "--out", out])
        return {kind: sha256(Path(out, f"{topo}.{kind}.json").read_bytes()) for kind in OBS_KINDS}


def chaos(topo, seed, schedules):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out, "campaign.json")
        _quietly(chaos_main, [
            "--schedules", str(schedules), "--topology", topo, "--seed", str(seed),
            "--quiet", "--json", str(path),
        ])
        return sha256(path.read_bytes())


def traffic():
    with tempfile.TemporaryDirectory() as out:
        path = Path(out, "traffic.json")
        _quietly(traffic_main, ["run", "--out", str(path)])
        return sha256(path.read_bytes())


ROWS = {
    **{f"e2e/{w}": functools.partial(e2e, w) for w in workloads.WORKLOAD_NAMES},
    "trace/determinism_seed42": lambda: run_once(42)[3],
    **{f"trace/{s.__name__}": (lambda s=s: trace_digest(s())) for s in SCENARIOS},
    **{
        f"obs-run/{topo}.{kind}.json": (lambda topo=topo, kind=kind: obs_run(topo)[kind])
        for topo in ("ring-4", "torus-3x4")
        for kind in OBS_KINDS
    },
    "chaos/torus-2x3_seed7": lambda: chaos("torus-2x3", 7, 3),
    "chaos/torus-3x4_seed0": lambda: chaos("torus-3x4", 0, 50),
    "traffic/src-lan-30_default": traffic,
}

#: the rows only CI computes: the 50-schedule campaign (about 11 s) and the
#: six e2e rounds (about 7 s); tier-1 computes the rest in about 3 s
CI_ONLY = frozenset({"chaos/torus-3x4_seed0", *(f"e2e/{w}" for w in workloads.WORKLOAD_NAMES)})


def committed():
    """The committed manifest; an empty fixture (being re-baselined) is ``{}``."""
    text = FIXTURE.read_text() if FIXTURE.exists() else ""
    return json.loads(text) if text.strip() else {}


def main():
    manifest = {row: ROWS[row]() for row in sorted(ROWS)}
    sys.stdout.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    want = committed()
    moved = sorted(
        row for row in manifest.keys() | want.keys() if manifest.get(row) != want.get(row)
    )
    for row in moved:
        print(f"{row}: {manifest.get(row, 'no such row')} != committed "
              f"{want.get(row, 'no such row')}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
