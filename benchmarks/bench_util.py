"""Shared helpers for the benchmark harness.

Every bench reproduces one table/figure-equivalent from the paper's
evaluation (see DESIGN.md's experiment index).  Results are printed,
appended to ``benchmarks/results/<bench>.txt``, and emitted as schema-
stable JSON (``repro.obs.export``) so the numbers that back
EXPERIMENTS.md are regenerable and machine-readable:

* under pytest, each :func:`report` call writes
  ``benchmarks/results/BENCH_<name>.json`` (one document per table; a
  bench whose measurement returns a whole document, like the scaling
  sweep, hands it to :func:`report_document`);
* invoked directly (``python benchmarks/bench_X.py --json out.json
  --seed N``), :func:`run_cli` runs every test in the module with a stub
  ``benchmark`` fixture and writes one combined document.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Iterable, Optional, Sequence

if __package__ in (None, ""):  # direct invocation: put repo root + src on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from repro.analysis.metrics import format_table
from repro.constants import SEC
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result
from repro.scenario import ScenarioResult, drive_scenario

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: the combined document being assembled by run_cli (None under pytest)
_document: Optional[Dict] = None
#: seed requested via --seed / REPRO_BENCH_SEED (None = bench default)
_seed_override: Optional[int] = None


def current_seed(default: int = 0) -> int:
    """The RNG seed benches should build their networks with."""
    if _seed_override is not None:
        return _seed_override
    env = os.environ.get("REPRO_BENCH_SEED")
    if env is not None:
        return int(env)
    return default


def measured_cut(net, cut=None, load_ns: int = 2 * SEC) -> ScenarioResult:
    """The E-series scenario on a freshly built ``net``: boot to
    convergence, idle ``load_ns``, cut one cable (default: the topology's
    first), reconverge.  Asserts both convergences and returns what
    :func:`repro.scenario.drive_scenario` measured."""
    if cut is None:
        a, _pa, b, _pb = net.spec.cables[0]
        cut = (a, b)
    outcome = drive_scenario(net, [cut], load_ns=load_ns, timeout_ns=240 * SEC)
    assert outcome.converged, f"no boot convergence: {net.spec.name}"
    assert outcome.reconverged, f"no reconvergence: {net.spec.name}"
    return outcome


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
    telemetry: Optional[Dict] = None,
) -> str:
    """Render, print, and persist one result table (text + JSON)."""
    result = bench_result(
        name, title,
        headers=[str(h) for h in headers],
        rows=[[_scalar(cell) for cell in row] for row in rows],
        notes=notes,
        telemetry=telemetry,
    )
    return report_document(
        bench_document(name, title=title, seed=current_seed(), results=[result])
    )


def report_document(doc: Dict) -> str:
    """Print and persist a ``repro.bench/1`` document's tables: as
    ``results/<bench>.txt`` and ``results/BENCH_<bench>.json``, and into
    the combined document :func:`run_cli` is assembling."""
    text = "\n".join(
        f"== {result['title']} ==\n{format_table(result['headers'], result['rows'])}\n"
        + (result["notes"].rstrip() + "\n" if result["notes"] else "")
        for result in doc["results"]
    )
    if _document is not None:
        _document["results"].extend(doc["results"])

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{doc['bench']}.txt"), "w") as fh:
        fh.write(text)
    artifact.write(os.path.join(RESULTS_DIR, f"BENCH_{doc['bench']}.json"), doc)

    print("\n" + text)
    return text


def _scalar(cell):
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


def fmt_ms(ns) -> str:
    return "-" if ns is None else f"{ns / 1e6:.1f}"


def fmt_us(ns) -> str:
    return "-" if ns is None else f"{ns / 1e3:.2f}"


class _StubBenchmark:
    """Stands in for pytest-benchmark's fixture under run_cli."""

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0):
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


def run_cli(namespace: Dict, bench_id: Optional[str] = None) -> None:
    """Entry point for ``python benchmarks/bench_X.py [--json F] [--seed N]``.

    Runs every ``test_*`` function in ``namespace`` with a stub
    ``benchmark`` fixture, accumulates their :func:`report` tables, and
    optionally writes the combined schema-valid JSON document.
    """
    global _document, _seed_override

    if bench_id is None:
        bench_id = (
            os.path.splitext(os.path.basename(namespace.get("__file__", "bench")))[0]
            .replace("bench_", "")
        )
    doc = namespace.get("__doc__") or ""
    title = doc.strip().splitlines()[0].strip() if doc.strip() else bench_id

    parser = argparse.ArgumentParser(description=title)
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the combined results document here")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed threaded into the benches")
    parser.add_argument("--only", default=None, metavar="SUBSTR",
                        help="run only tests whose name contains SUBSTR")
    args = parser.parse_args()

    tests = [
        (name, fn)
        for name, fn in sorted(namespace.items())
        if name.startswith("test_") and callable(fn)
    ]
    if args.only:
        tests = [(n, f) for n, f in tests if args.only in n]
    if not tests:
        print("no tests selected", file=sys.stderr)
        sys.exit(2)

    if args.seed is not None:
        _seed_override = args.seed

    failures = []
    _document = bench_document(bench_id, title=title, seed=current_seed())
    for name, fn in tests:
        print(f"-- {name}")
        try:
            fn(_StubBenchmark())
        except AssertionError as error:
            failures.append(name)
            print(f"FAILED {name}: {error}", file=sys.stderr)

    if args.json_path:
        artifact.write(args.json_path, _document)
        print(f"wrote {args.json_path}")
    _document = None
    sys.exit(1 if failures else 0)
