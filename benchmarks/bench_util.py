"""Shared helpers for the benchmark harness.

Every bench reproduces one table/figure-equivalent from the paper's
evaluation (see DESIGN.md's experiment index).  Results are printed,
appended to ``benchmarks/results/<bench>.txt``, and emitted as schema-
stable JSON (``repro.obs.export``) so the numbers that back
EXPERIMENTS.md are regenerable and machine-readable:

* under pytest, each :func:`report` call writes
  ``benchmarks/results/BENCH_<name>.json`` (one document per table);
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
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result
from repro.obs.regress import archive_document, metrics_of
from repro.sim.rng import RngRegistry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: the combined document being assembled by run_cli (None under pytest)
_document: Optional[Dict] = None
#: seed requested via --seed / REPRO_BENCH_SEED (None = bench default)
_seed_override: Optional[int] = None
#: True while run_cli replays the suite under --repeat: results still
#: accumulate into _document for statistics, but the .txt/.json files in
#: results/ are left as the base-seed run wrote them
_aggregate_only = False


def current_seed(default: int = 0) -> int:
    """The RNG seed benches should build their networks with."""
    if _seed_override is not None:
        return _seed_override
    env = os.environ.get("REPRO_BENCH_SEED")
    if env is not None:
        return int(env)
    return default


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
    telemetry: Optional[Dict] = None,
) -> str:
    """Render, print, and persist one result table (text + JSON)."""
    rows = [list(row) for row in rows]
    table = format_table(headers, rows)
    text = f"== {title} ==\n{table}\n"
    if notes:
        text += notes.rstrip() + "\n"

    result = bench_result(
        name, title,
        headers=[str(h) for h in headers],
        rows=[[_scalar(cell) for cell in row] for row in rows],
        notes=notes,
        telemetry=telemetry,
    )
    if _document is not None:
        _document["results"].append(result)
    if _aggregate_only:
        return text

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text)
    doc = bench_document(name, title=title, seed=current_seed(), results=[result])
    artifact.write(os.path.join(RESULTS_DIR, f"BENCH_{name}.json"), doc)

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

    ``--repeat N`` replays the suite N-1 extra times under independent
    seeds forked from the base seed (``RngRegistry.child_seed``, so the
    streams never collide with the base run's) and embeds per-metric
    mean/stdev into each result's ``telemetry["repeat"]`` -- the spread
    the regress comparator turns into sigma-based tolerance bands.  The
    written tables and the document's own rows always come from the base
    seed; with ``--repeat 1`` (the default) output is byte-identical to
    a run without the flag.

    ``--archive DIR`` appends the combined document to
    ``DIR/<bench>.history.jsonl`` keyed by git SHA/seed/topology.
    """
    global _document, _seed_override, _aggregate_only

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
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the suite N times under forked seeds and "
                             "embed per-metric mean/stdev statistics")
    parser.add_argument("--archive", default=None, metavar="DIR",
                        help="append the combined document to the per-bench "
                             "history in DIR")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

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
    base_seed = current_seed()
    rng = RngRegistry(base_seed)
    seeds = [base_seed] + [
        rng.child_seed(f"repeat/{rep}") for rep in range(1, args.repeat)
    ]

    failures = []
    rep_docs = []
    for rep, seed in enumerate(seeds):
        if rep > 0:
            _seed_override = seed
            _aggregate_only = True
        _document = bench_document(bench_id, title=title, seed=seed)
        rep_docs.append(_document)
        for name, fn in tests:
            print(f"-- {name}" + (f" [repeat {rep}]" if rep else ""))
            try:
                fn(_StubBenchmark())
            except AssertionError as error:
                failures.append(name)
                print(f"FAILED {name}: {error}", file=sys.stderr)
    _aggregate_only = False

    base_doc = rep_docs[0]
    if args.repeat > 1:
        _embed_repeat_stats(base_doc, rep_docs, seeds)

    if args.json_path:
        artifact.write(args.json_path, base_doc)
        print(f"wrote {args.json_path}")
    if args.archive:
        path = archive_document(args.archive, base_doc)
        print(f"archived to {path}")
    _document = None
    sys.exit(1 if failures else 0)


def _embed_repeat_stats(base_doc: Dict, rep_docs, seeds) -> None:
    """Attach cross-repeat mean/stdev per metric to each base result."""
    flats = [metrics_of(d) for d in rep_docs]
    for result in base_doc["results"]:
        prefix = result["name"] + "/"
        stats: Dict[str, Dict[str, float]] = {}
        for key in sorted(flats[0]):
            if not key.startswith(prefix):
                continue
            values = [flat[key] for flat in flats if key in flat]
            mean = sum(values) / len(values)
            if len(values) > 1:
                stdev = (sum((v - mean) ** 2 for v in values)
                         / (len(values) - 1)) ** 0.5
            else:
                stdev = 0.0
            stats[key[len(prefix):]] = {"mean": mean, "stdev": stdev}
        telemetry = result.get("telemetry") or {}
        telemetry["repeat"] = {
            "runs": len(rep_docs),
            "seeds": list(seeds),
            "metrics": stats,
        }
        result["telemetry"] = telemetry
