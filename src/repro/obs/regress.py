"""The benchmark-regression trajectory: archive, compare, gate.

Autonet's reconfiguration-time tables are longitudinal claims -- "a
failed link is configured around in about a second" stays true only if
someone keeps measuring.  This module closes that loop over the
``repro.bench/1`` documents every bench emits:

* **Archive.**  ``bench_util --archive DIR`` (and :func:`archive_document`
  here) appends each document to ``<dir>/<bench>.history.jsonl``, one
  line per run keyed by git SHA, seed, and topology, so the trajectory
  of every metric is a greppable file instead of CI-artifact archaeology.
* **Compare.**  :func:`compare` flattens the newest document into
  ``result/row/metric`` scalars and checks each against a *baseline
  window* (one committed document, a directory of them, or a history
  file) with per-metric tolerance bands: ``max(rel * |mean|, abs,
  sigma * stdev)`` around the baseline mean, where the stdev comes from
  the window itself or from ``--repeat`` statistics embedded in the
  baseline document.
* **Gate.**  ``python -m repro.obs regress`` emits the verdict as a
  ``repro.obs.regress/1`` document and exits non-zero on any
  out-of-band metric -- the CI ``bench-regress`` job blocks on it.

Both directions of the band fail: a metric that *improved* past the band
means the baseline is stale and must be re-committed deliberately, not
silently absorbed.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.artifact import (
    COUNT,
    NAME,
    NUM,
    Enum,
    Int,
    Opt,
    Schema,
    fail,
    keys,
    read,
    validate,
)
from repro.obs.export import SCHEMA as BENCH_SCHEMA

#: bump the suffix when the verdict layout changes incompatibly
REGRESS_SCHEMA = "repro.obs.regress/1"

#: statuses a comparison can land on (``out-of-band`` fails the gate)
STATUSES = ("ok", "out-of-band", "new", "missing")


# -- the archive ----------------------------------------------------------------------


def archive_document(
    archive_dir: str,
    doc: Dict[str, Any],
    sha: str = "",
    topology: str = "",
) -> str:
    """Append one validated bench document to its per-bench history.

    Returns the history path.  Entries carry the identity triple the
    comparator keys on: git SHA (``sha`` argument, ``REPRO_GIT_SHA``, or
    ``unknown``), the document's seed, and the topology (argument or
    best-effort from the first result row).
    """
    validate(doc, BENCH_SCHEMA)
    os.makedirs(archive_dir, exist_ok=True)
    path = os.path.join(archive_dir, f"{doc['bench']}.history.jsonl")
    entry = {
        "sha": sha or os.environ.get("REPRO_GIT_SHA", "") or "unknown",
        "seed": doc.get("seed"),
        "topology": topology or _guess_topology(doc),
        "doc": doc,
    }
    with open(path, "a") as fh:
        json.dump(entry, fh, sort_keys=False)
        fh.write("\n")
    return path


def load_history(path: str) -> List[Dict[str, Any]]:
    """Read a history file back: one dict per archived run, in order."""
    entries = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if not isinstance(entry, dict) or "doc" not in entry:
                raise ValueError(f"{path}:{i + 1}: not a history entry")
            validate(entry["doc"], BENCH_SCHEMA)
            entries.append(entry)
    return entries


def _guess_topology(doc: Dict[str, Any]) -> str:
    """Best-effort topology key: the first row cell under a header that
    names a topology, else empty."""
    for result in doc.get("results", []):
        headers = [h.lower() for h in result.get("headers", [])]
        for i, header in enumerate(headers):
            if "topolog" in header or header == "network":
                for row in result.get("rows", []):
                    if i < len(row) and isinstance(row[i], str):
                        return row[i]
    return ""


# -- flattening a document into metrics ------------------------------------------------


def metrics_of(doc: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a bench document into ``result/row/metric`` scalars.

    Row key is the first cell (stringified); numeric cells under the
    remaining headers become metrics.  Top-level numeric telemetry
    values join as ``result/telemetry/<key>``.
    """
    out: Dict[str, float] = {}
    for result in doc.get("results", []):
        rname = result["name"]
        headers = result["headers"]
        for row in result["rows"]:
            if not row:
                continue
            row_key = str(row[0])
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


def repeat_stats_of(doc: Dict[str, Any]) -> Dict[str, Tuple[float, float]]:
    """(mean, stdev) per metric from ``--repeat`` statistics embedded in
    the document's telemetry (see bench_util), empty if absent."""
    out: Dict[str, Tuple[float, float]] = {}
    for result in doc.get("results", []):
        repeat = (result.get("telemetry") or {}).get("repeat")
        if not isinstance(repeat, dict):
            continue
        for key, stats in (repeat.get("metrics") or {}).items():
            mean = _numeric(stats.get("mean"))
            stdev = _numeric(stats.get("stdev"))
            if mean is not None:
                out[f"{result['name']}/{key}"] = (mean, stdev or 0.0)
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


# -- tolerance bands -------------------------------------------------------------------


#: which band edges fail the gate.  ``both`` (the default) fails on any
#: departure; ``floor`` fails only below the band (throughput metrics,
#: where an improvement past the band is welcome, not suspicious);
#: ``ceiling`` fails only above it (latency / wall-time metrics).
DIRECTIONS = ("both", "floor", "ceiling")


def _best_match(metric: str, patterns: Dict[str, Any]) -> Optional[str]:
    """The most specific fnmatch pattern matching ``metric``: longest
    pattern wins (so ``bench/telemetry/x`` beats ``*/telemetry/*``),
    lexicographic order breaks ties deterministically."""
    best = None
    for pattern in sorted(patterns):
        if fnmatch.fnmatchcase(metric, pattern):
            if best is None or len(pattern) > len(best):
                best = pattern
    return best


@dataclass
class Tolerance:
    """Band half-width around the baseline mean:
    ``max(rel * |mean|, abs, sigma * stdev)``."""

    rel: float = 0.25
    abs: float = 1e-9
    sigma: float = 4.0
    #: fnmatch pattern -> relative tolerance override (per-metric bands)
    overrides: Dict[str, float] = field(default_factory=dict)
    #: fnmatch pattern -> direction override (see DIRECTIONS)
    directions: Dict[str, str] = field(default_factory=dict)

    def rel_for(self, metric: str) -> float:
        match = _best_match(metric, self.overrides)
        return self.rel if match is None else self.overrides[match]

    def direction_for(self, metric: str) -> str:
        match = _best_match(metric, self.directions)
        return "both" if match is None else self.directions[match]

    def band(self, metric: str, mean: float, stdev: float) -> Tuple[float, float]:
        half = max(self.rel_for(metric) * abs(mean), self.abs, self.sigma * stdev)
        return (mean - half, mean + half)

    def in_band(self, metric: str, value: float, lo: float, hi: float) -> bool:
        direction = self.direction_for(metric)
        if direction == "floor":
            return value >= lo
        if direction == "ceiling":
            return value <= hi
        return lo <= value <= hi

    @classmethod
    def load_overrides(cls, path: str, **kwargs: Any) -> "Tolerance":
        """A Tolerance whose per-metric overrides come from a JSON file.

        Each entry maps an fnmatch pattern either to a relative tolerance
        (``{"pat": 0.5}``, both directions gate, the original form) or to
        an object ``{"rel": 0.5, "direction": "floor"}`` where
        ``direction`` picks which band edges fail (see DIRECTIONS).
        """
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected {{pattern: tolerance}}")
        overrides: Dict[str, float] = {}
        directions: Dict[str, str] = {}
        for key, value in raw.items():
            if not isinstance(key, str):
                raise ValueError(f"{path}: pattern must be a string, got {key!r}")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                overrides[key] = float(value)
                continue
            if isinstance(value, dict):
                rel = value.get("rel")
                direction = value.get("direction", "both")
                if (
                    isinstance(rel, (int, float))
                    and not isinstance(rel, bool)
                    and direction in DIRECTIONS
                    and set(value) <= {"rel", "direction"}
                ):
                    overrides[key] = float(rel)
                    if direction != "both":
                        directions[key] = direction
                    continue
            raise ValueError(
                f"{path}: {key!r} must map to a relative tolerance or "
                f"{{'rel': <num>, 'direction': {DIRECTIONS}}}, got {value!r}"
            )
        return cls(overrides=overrides, directions=directions, **kwargs)


# -- the comparator --------------------------------------------------------------------


def baseline_window(path: str, bench: str) -> List[Dict[str, Any]]:
    """Resolve a baseline source into a window of documents for ``bench``.

    ``path`` may be a single ``repro.bench/1`` JSON file, a
    ``*.history.jsonl`` archive, or a directory searched for
    ``<bench>.json`` then ``<bench>.history.jsonl``.
    """
    if os.path.isdir(path):
        for candidate in (f"{bench}.json", f"{bench}.history.jsonl"):
            full = os.path.join(path, candidate)
            if os.path.exists(full):
                path = full
                break
        else:
            raise FileNotFoundError(
                f"no baseline for bench {bench!r} in {path} "
                f"(looked for {bench}.json and {bench}.history.jsonl)"
            )
    if path.endswith(".jsonl"):
        docs = [entry["doc"] for entry in load_history(path)]
    else:
        docs = [read(path, BENCH_SCHEMA)]
    docs = [d for d in docs if d.get("bench") == bench]
    if not docs:
        raise ValueError(f"{path}: no documents for bench {bench!r}")
    return docs


def compare(
    current: Dict[str, Any],
    baseline_docs: List[Dict[str, Any]],
    tolerance: Optional[Tolerance] = None,
    strict: bool = False,
) -> Dict[str, Any]:
    """Diff one document against a baseline window; returns the
    ``repro.obs.regress/1`` verdict document.

    Per metric: baseline mean/stdev over the window (repeat statistics
    in a single-doc window supply the stdev), band from ``tolerance``,
    status ``ok`` / ``out-of-band`` / ``new`` / ``missing``.  ``strict``
    makes missing metrics fail too.
    """
    validate(current, BENCH_SCHEMA)
    tolerance = tolerance or Tolerance()
    now = metrics_of(current)
    windows: Dict[str, List[float]] = {}
    for doc in baseline_docs:
        for key, value in metrics_of(doc).items():
            windows.setdefault(key, []).append(value)
    embedded = repeat_stats_of(baseline_docs[-1]) if len(baseline_docs) == 1 else {}

    comparisons: List[Dict[str, Any]] = []
    failing = 0
    for key in sorted(set(now) | set(windows)):
        if key not in windows:
            comparisons.append({
                "metric": key, "status": "new",
                "current": now[key], "baseline_mean": None,
                "baseline_stdev": None, "band_lo": None, "band_hi": None,
            })
            continue
        if key not in now:
            comparisons.append({
                "metric": key, "status": "missing",
                "current": None, "baseline_mean": _mean(windows[key]),
                "baseline_stdev": None, "band_lo": None, "band_hi": None,
            })
            if strict:
                failing += 1
            continue
        values = windows[key]
        mean = _mean(values)
        stdev = _stdev(values)
        if key in embedded:
            mean, stdev = embedded[key]
        lo, hi = tolerance.band(key, mean, stdev)
        in_band = tolerance.in_band(key, now[key], lo, hi)
        if not in_band:
            failing += 1
        comparisons.append({
            "metric": key,
            "status": "ok" if in_band else "out-of-band",
            "direction": tolerance.direction_for(key),
            "current": now[key],
            "baseline_mean": mean,
            "baseline_stdev": stdev,
            "band_lo": lo,
            "band_hi": hi,
        })
    return {
        "schema": REGRESS_SCHEMA,
        "bench": current["bench"],
        "seed": current.get("seed"),
        "baseline_runs": len(baseline_docs),
        "tolerance": {
            "rel": tolerance.rel,
            "abs": tolerance.abs,
            "sigma": tolerance.sigma,
            "overrides": dict(tolerance.overrides),
            "directions": dict(tolerance.directions),
        },
        "strict": strict,
        "comparisons": comparisons,
        "out_of_band": failing,
        "verdict": "ok" if failing == 0 else "regression",
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _stdev(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


# -- the verdict artifact --------------------------------------------------------------


def _rules(doc: Dict[str, Any]) -> None:
    """``out_of_band`` equals a recount (``strict`` counts missing too)."""
    failing = ("out-of-band", "missing") if doc.get("strict") else ("out-of-band",)
    count = sum(1 for c in doc["comparisons"] if c["status"] in failing)
    if count != doc["out_of_band"]:
        fail("$.out_of_band", f"declares {doc['out_of_band']}, counted {count}")


ARTIFACT = Schema(
    {
        "bench": NAME,
        "verdict": Enum("ok", "regression"),
        "out_of_band": COUNT,
        "baseline_runs": Int(1),
        "comparisons": [
            {
                "metric": NAME,
                "status": Enum(*STATUSES),
                **keys(Opt(NUM), "current", "baseline_mean", "baseline_stdev"),
                **keys(Opt(NUM), "band_lo", "band_hi"),
            }
        ],
    },
    rules=_rules,
)


def render_verdict(doc: Dict[str, Any], limit: int = 20) -> str:
    """The verdict as terminal text (the CI log's view of the gate)."""
    lines = [
        f"regress {doc['bench']}: {doc['verdict'].upper()} "
        f"({doc['out_of_band']} out-of-band of {len(doc['comparisons'])} metrics, "
        f"baseline window of {doc['baseline_runs']} run(s))"
    ]
    shown = 0
    for entry in doc["comparisons"]:
        if entry["status"] == "ok":
            continue
        if shown >= limit:
            lines.append("  ...")
            break
        shown += 1
        if entry["status"] == "out-of-band":
            lines.append(
                f"  OUT OF BAND {entry['metric']}: {entry['current']:g} "
                f"outside [{entry['band_lo']:g}, {entry['band_hi']:g}] "
                f"(baseline {entry['baseline_mean']:g})"
            )
        elif entry["status"] == "new":
            lines.append(f"  new metric {entry['metric']}: {entry['current']:g}")
        else:
            lines.append(f"  missing metric {entry['metric']}")
    return "\n".join(lines)
