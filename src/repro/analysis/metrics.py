"""Small statistics helpers shared by the benches."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def rate_mbps(bytes_count: float, elapsed_ns: int) -> float:
    """Throughput in Mbit/s over an elapsed simulated interval."""
    if elapsed_ns <= 0:
        return 0.0
    return bytes_count * 8 / (elapsed_ns / 1_000)  # bits per microsecond == Mbit/s


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
