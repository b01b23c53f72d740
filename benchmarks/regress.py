"""The benchmark-regression gate: an exact differ.

Autonet's reconfiguration-time tables are longitudinal claims -- "a
failed link is configured around in about a second" stays true only if
someone keeps measuring.  The simulator is deterministic, so what a
bench measures in *simulated* time or counts is bit-reproducible for a
given seed, and the gate over the ``repro.bench/1`` documents is plain
equality:

* :func:`metrics_of` flattens a document into ``result/row/metric``
  scalars (table cells and top-level telemetry numbers);
* :func:`compare` checks the fresh document against the committed
  baseline: every baseline metric must be present and **equal**; a
  metric the baseline lacks is reported and passes (commit a new
  baseline to start gating it);
* ``python -m benchmarks.regress CURRENT [BASELINES]`` prints the
  verdict and exits 1 on any difference -- the CI ``bench-gate`` job
  blocks on it.  ``BASELINES`` defaults to ``benchmarks/results/baselines``.

There are no tolerance bands.  Numbers that depend on the host (wall
time, events per second, ratios of either) leave the gated surface by
where a bench puts them: in a nested ``telemetry["host"]`` dict, which
the flattening never descends into.  An intended change re-commits
``benchmarks/results/baselines/`` in the same PR; ``git log`` on that
directory is the history.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs.artifact import fail, read, validate
from repro.obs.export import SCHEMA

BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", "baselines")

#: the statuses that fail the gate (the others are ``ok`` and ``new``)
FAILING = ("changed", "missing")


def metrics_of(doc: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a bench document into ``result/row/metric`` scalars.

    Row key is the first cell (stringified); numeric cells under the
    remaining headers become metrics.  Top-level numeric telemetry
    values join as ``result/telemetry/<key>``; nested telemetry (the
    ``host`` dict, span lists) is not descended into.  Two rows of one
    table sharing a first cell would silently shadow each other, so that
    is a :class:`~repro.obs.artifact.SchemaError`.
    """
    out: Dict[str, float] = {}
    for i, result in enumerate(doc.get("results", [])):
        rname = result["name"]
        headers = result["headers"]
        seen = set()
        for j, row in enumerate(result["rows"]):
            if not row:
                continue
            row_key = str(row[0])
            if row_key in seen:
                fail(
                    f"$.results[{i}].rows[{j}]",
                    f"second row keyed {row_key!r} in table {rname!r}",
                )
            seen.add(row_key)
            for header, cell in zip(headers[1:], row[1:]):
                value = _numeric(cell)
                if value is not None:
                    out[f"{rname}/{row_key}/{header}"] = value
        telemetry = result.get("telemetry") or {}
        for key in sorted(telemetry):
            value = _numeric(telemetry[key])
            if value is not None:
                out[f"{rname}/telemetry/{key}"] = value
    return out


def _numeric(cell: Any) -> Optional[float]:
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        # a numeric string cell ("287.3") still counts as a metric
        if isinstance(cell, str):
            try:
                return float(cell)
            except ValueError:
                return None
        return None
    if isinstance(cell, float) and not math.isfinite(cell):
        return None
    return float(cell)


def read_baseline(directory: str, bench: str) -> Dict[str, Any]:
    """The committed baseline document for ``bench``: ``<directory>/<bench>.json``."""
    path = os.path.join(directory, f"{bench}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no baseline for bench {bench!r}: {path} does not exist")
    doc = read(path, SCHEMA)
    if doc["bench"] != bench:
        raise ValueError(f"{path}: holds bench {doc['bench']!r}, not {bench!r}")
    return doc


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Diff one document against its baseline: ``bench``, ``comparisons``
    (one ``metric``/``status``/``current``/``baseline`` dict per metric)
    and ``failing``, the number of comparisons that fail.

    Per metric: ``ok`` (equal), ``changed`` (present in both, not
    equal), ``missing`` (the baseline has it, the current run does not)
    or ``new`` (the reverse).  ``changed`` and ``missing`` fail.
    """
    now = metrics_of(validate(current, SCHEMA))
    then = metrics_of(validate(baseline, SCHEMA))
    comparisons: List[Dict[str, Any]] = []
    for key in sorted(set(now) | set(then)):
        if key not in then:
            status = "new"
        elif key not in now:
            status = "missing"
        else:
            status = "ok" if now[key] == then[key] else "changed"
        comparisons.append({
            "metric": key,
            "status": status,
            "current": now.get(key),
            "baseline": then.get(key),
        })
    return {
        "bench": current["bench"],
        "comparisons": comparisons,
        "failing": sum(1 for c in comparisons if c["status"] in FAILING),
    }


def render_verdict(verdict: Dict[str, Any], limit: int = 20) -> str:
    """The verdict as terminal text (the CI log's view of the gate)."""
    lines = [
        f"regress {verdict['bench']}: {'REGRESSION' if verdict['failing'] else 'OK'} "
        f"({verdict['failing']} failing of {len(verdict['comparisons'])} metrics, exact)"
    ]
    shown = 0
    for entry in verdict["comparisons"]:
        if entry["status"] == "ok":
            continue
        if shown >= limit:
            lines.append("  ...")
            break
        shown += 1
        if entry["status"] == "changed":
            lines.append(
                f"  CHANGED {entry['metric']}: {entry['current']!r} "
                f"(baseline {entry['baseline']!r})"
            )
        elif entry["status"] == "missing":
            lines.append(f"  MISSING {entry['metric']} (baseline {entry['baseline']!r})")
        else:
            lines.append(f"  new metric {entry['metric']}: {entry['current']!r}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2 or any(arg.startswith("-") for arg in args):
        print("usage: python -m benchmarks.regress CURRENT [BASELINES]", file=sys.stderr)
        return 2
    current = read(args[0], SCHEMA)
    verdict = compare(current, read_baseline(args[1] if args[1:] else BASELINES, current["bench"]))
    print(render_verdict(verdict))
    return 1 if verdict["failing"] else 0


if __name__ == "__main__":
    sys.exit(main())
