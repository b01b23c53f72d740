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
over every emitted file).  :func:`render_bench` is its text report; a
result whose ``telemetry`` is a ``Network.telemetry()`` snapshot (or the
part of one a bench kept) is followed by :func:`render_telemetry`, the
operator-facing dashboard of that snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

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


def render_telemetry(snap: Dict[str, Any]) -> str:
    """A ``Network.telemetry()`` snapshot (live, or read back from a
    bench document, where JSON has made every key a string) as text: the
    forwarding-plane counters, congestion residue (FIFO high-water, stop
    time), skeptic hold-downs, the per-epoch reconfiguration spans with
    their blackout intervals, and the control-plane cost ledger.  Each
    section renders when the snapshot carries its key."""
    lines: List[str] = []
    switches = snap.get("switches") or {}
    if switches:
        lines.append(
            f"telemetry @ {snap['time_ns'] / 1e9:.3f}s "
            f"({'enabled' if snap['enabled'] else 'DISABLED'})"
        )
        lines.append("  switch        fwd     disc   to-cp  resets  epochs(i/j)  term")
    port_rows, holds = [], []
    for name, sw in switches.items():
        lines.append(
            f"  {name:<12} {sw['packets_forwarded']:>6} {sw['packets_discarded']:>8} "
            f"{sw['packets_to_cp']:>7} {sw['resets']:>7} "
            f"{sw['epochs_initiated']:>5}/{sw['epochs_joined']:<5} "
            f"{sw['terminations']:>4}"
        )
        for p, port in sw["ports"].items():
            if (
                port["forwarded"] or port["dropped"]
                or port["stop_ns"] or port["fifo_highwater_bytes"] > 0
            ):
                drops = ",".join(f"{c}={n}" for c, n in sorted(port["dropped"].items()))
                port_rows.append(
                    f"  {name}.p{p:<3} fwd={port['forwarded']:<6} "
                    f"ct/buf={port['cut_through']}/{port['buffered']:<5} "
                    f"hw={port['fifo_highwater_bytes']:>6.0f}B "
                    f"stop={port['stop_ns'] / 1e6:>8.2f}ms"
                    + (f" drops[{drops}]" if drops else "")
                )
        for p, skeptic in sw["skeptic_holds"].items():
            holds.append(
                f"  {name}.p{p}: {skeptic['failures']} failures, "
                f"holding {skeptic['hold_ns'] / 1e6:.0f} ms, "
                f"needs {skeptic['probes_required']} good probes"
            )
    if port_rows:
        lines += ["", "  port activity:", *port_rows]
    if holds:
        lines += ["", "  skeptic hold-downs:", *holds]

    for span in snap.get("reconfigurations") or []:
        header = f"  reconfiguration epoch {span['key']}:"
        if span["duration_ns"] is not None:
            header += f" {span['duration_ns'] / 1e6:.1f} ms"
        else:
            header += " (incomplete)"
        if span.get("max_blackout_ns") is not None:
            header += f", worst switch blackout {span['max_blackout_ns'] / 1e6:.1f} ms"
        lines += ["", header]
        for ev in span["events"]:
            who = f" [{ev['component']}]" if ev.get("component") else ""
            lines.append(f"    {ev['t_ns'] / 1e6:>10.2f} ms  {ev['event']}{who}")
    if snap.get("unclosed_spans"):
        lines += ["", f"  WARNING: {snap['unclosed_spans']} reconfiguration span(s) never closed"]

    control = snap.get("control")
    if control:
        lines += [
            "",
            f"  control plane: {control['packets']} control packets, "
            f"{control['bytes'] / 1024:.1f} KiB, {control['retransmissions']} retransmitted",
        ]
        for key, cell in [*control["by_phase"].items(), *control["by_type"].items()]:
            lines.append(
                f"    {key:<18} {cell['packets']:>6} pkts {cell['bytes'] / 1024:>8.1f} KiB"
            )
        for epoch, cell in control["epochs"].items():
            lines.append(
                f"    epoch {epoch}: {cell['packets']} pkts "
                f"{cell['bytes'] / 1024:.1f} KiB, {cell['retransmissions']} retx"
            )
        if control["srp"]:
            lines.append("    srp: " + ", ".join(f"{k}={v}" for k, v in control["srp"].items()))
    return "\n".join(lines).lstrip("\n")


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain-text aligned table for bench output."""
    materialized: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        materialized.append([str(cell) for cell in row])
    widths = [max(len(r[i]) for r in materialized) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(materialized):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_bench(doc: Dict[str, Any]) -> str:
    """Every result as its bench printed it -- title, table, notes --
    followed by the dashboard of a telemetry snapshot it carries."""
    lines = [f"bench {doc['bench']}: {doc['title']} (seed {doc['seed']})"]
    for result in doc["results"]:
        lines += ["", f"== {result['title']} ==", format_table(result["headers"], result["rows"])]
        if result["notes"]:
            lines.append(result["notes"].rstrip())
        dashboard = render_telemetry(result.get("telemetry") or {})
        if dashboard:
            lines += ["", dashboard]
    return "\n".join(lines)


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
    render=render_bench,
)
