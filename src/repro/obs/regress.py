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
* ``python -m repro.obs regress`` emits the verdict as a
  ``repro.obs.regress/2`` document and exits non-zero on any difference
  -- the CI ``bench-gate`` job blocks on it.

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
from typing import Any, Dict, List, Optional

from repro.obs.artifact import COUNT, NAME, NUM, Enum, Opt, Schema, fail, keys, read, validate
from repro.obs.export import SCHEMA as BENCH_SCHEMA

#: bump the suffix when the verdict layout changes incompatibly
#: (/1 carried tolerance bands: baseline_mean/stdev, band_lo/hi, direction)
REGRESS_SCHEMA = "repro.obs.regress/2"

#: statuses a comparison can land on (``changed`` and ``missing`` fail)
STATUSES = ("ok", "changed", "missing", "new")
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


def read_baseline(path: str, bench: str) -> Dict[str, Any]:
    """The committed baseline document for ``bench``: ``path`` itself,
    or ``<path>/<bench>.json`` when ``path`` is a directory."""
    if os.path.isdir(path):
        path = os.path.join(path, f"{bench}.json")
        if not os.path.exists(path):
            raise FileNotFoundError(f"no baseline for bench {bench!r}: {path} does not exist")
    doc = read(path, BENCH_SCHEMA)
    if doc["bench"] != bench:
        raise ValueError(f"{path}: holds bench {doc['bench']!r}, not {bench!r}")
    return doc


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Diff one document against its baseline; returns the
    ``repro.obs.regress/2`` verdict document.

    Per metric: ``ok`` (equal), ``changed`` (present in both, not
    equal), ``missing`` (the baseline has it, the current run does not)
    or ``new`` (the reverse).  ``changed`` and ``missing`` fail.
    """
    now = metrics_of(validate(current, BENCH_SCHEMA))
    then = metrics_of(validate(baseline, BENCH_SCHEMA))
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
    failing = sum(1 for c in comparisons if c["status"] in FAILING)
    return {
        "schema": REGRESS_SCHEMA,
        "bench": current["bench"],
        "seed": current.get("seed"),
        "comparisons": comparisons,
        "failing": failing,
        "verdict": "ok" if failing == 0 else "regression",
    }


# -- the verdict artifact --------------------------------------------------------------


def _rules(doc: Dict[str, Any]) -> None:
    """``failing`` equals a recount and decides the verdict."""
    count = sum(1 for c in doc["comparisons"] if c["status"] in FAILING)
    if count != doc["failing"]:
        fail("$.failing", f"declares {doc['failing']}, counted {count}")
    if (doc["verdict"] == "ok") != (count == 0):
        fail("$.verdict", f"{doc['verdict']!r} with {count} failing metric(s)")


def render_verdict(doc: Dict[str, Any], limit: int = 20) -> str:
    """The verdict as terminal text (the CI log's view of the gate)."""
    lines = [
        f"regress {doc['bench']}: {doc['verdict'].upper()} "
        f"({doc['failing']} failing of {len(doc['comparisons'])} metrics, exact)"
    ]
    shown = 0
    for entry in doc["comparisons"]:
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


ARTIFACT = Schema(
    {
        "bench": NAME,
        "verdict": Enum("ok", "regression"),
        "failing": COUNT,
        "comparisons": [
            {
                "metric": NAME,
                "status": Enum(*STATUSES),
                **keys(Opt(NUM), "current", "baseline"),
            }
        ],
    },
    rules=_rules,
    render=render_verdict,
)
