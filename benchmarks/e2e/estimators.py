"""Estimators and the modelled fingerprint of the end-to-end benchmark.

A round's host-time metrics arrive already scaled to the reference host
speed (``calibrate.SpeedProbe``), which removes the one-sided contention
noise of a shared machine; what is left is roughly symmetric, so a run
reports the *median* of its rounds.  n, min, lower quartile, median and
max are printed beside it so a noisy session stays visible, and
``--compare`` calls a row *unresolved* when the distance from the minimum
to the lower quartile (nearest rank: the second-smallest of 5 to 8
rounds) is wider than the metric's bound.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Sequence


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-quantile (0 < p <= 1) of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0 < p <= 1:
        raise ValueError(f"quantile rank out of range: {p}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def lower_quartile(values: Sequence[float]) -> float:
    """Nearest-rank 25th percentile: second-smallest of 5 to 8 values."""
    return nearest_rank(values, 0.25)


def noise_summary(values: Sequence[float]) -> Dict[str, float]:
    """n, min, lower quartile, median and max of one metric's rounds."""
    return {
        "n": len(values),
        "min": min(values),
        "lower_quartile": lower_quartile(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def canonical_json(value: Any) -> str:
    """One byte string per value: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def fingerprint(model: Any) -> str:
    """sha256 of the canonical JSON of a round's sim-time outputs.

    Nothing in ``model`` may hold a wall-clock value; two rounds of one
    workload and seed must therefore agree byte for byte, and a mismatch
    is nondeterminism in the program, not noise.
    """
    return hashlib.sha256(canonical_json(model).encode("ascii")).hexdigest()
