"""Stable JSON export schema for benchmark runs.

Every benchmark builds its results with :func:`bench_document` /
:func:`bench_result`, so downstream tooling (CI trend lines, the
paper-table comparisons) reads one format:

.. code-block:: json

    {
      "schema": "repro.bench/1",
      "bench": "reconfiguration",
      "title": "Reconfiguration blackout",
      "seed": 1234,
      "results": [
        {
          "name": "single_link_failure",
          "title": "...",
          "headers": ["topology", "blackout"],
          "rows": [["ring(12)", 287.3]],
          "notes": "",
          "telemetry": {...}
        }
      ]
    }

``ARTIFACT`` is the document's schema table; :mod:`repro.obs.artifact`
validates, reads and writes it (CI runs ``python -m repro.obs validate``
over every emitted file).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.artifact import INT, NAME, SCALAR, STR, Opt, Schema, fail, keys

#: bump the suffix when the document layout changes incompatibly
SCHEMA = "repro.bench/1"


def bench_result(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: str = "",
    telemetry: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One result table, as a schema-shaped dict."""
    result: Dict[str, Any] = {
        "name": name,
        "title": title,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "notes": notes,
    }
    if telemetry is not None:
        result["telemetry"] = telemetry
    return result


def bench_document(
    bench: str,
    title: str = "",
    seed: Optional[int] = None,
    results: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """A full document; append :func:`bench_result` dicts to ``results``."""
    return {
        "schema": SCHEMA,
        "bench": bench,
        "title": title,
        "seed": seed,
        "results": list(results) if results else [],
    }


def _rules(doc: Dict[str, Any]) -> None:
    """Every row is as wide as its table's header."""
    for i, result in enumerate(doc["results"]):
        width = len(result["headers"])
        for j, row in enumerate(result["rows"]):
            if len(row) != width:
                fail(
                    f"$.results[{i}].rows[{j}]",
                    f"row width {len(row)} != header width {width}",
                )


ARTIFACT = Schema(
    {
        "bench": NAME,
        "title": STR,
        "seed": Opt(INT),
        "results": [
            {
                **keys(STR, "name", "title", "notes"),
                "headers": [STR],
                "rows": [[SCALAR]],
                "telemetry": Opt({}),
            }
        ],
    },
    rules=_rules,
)
