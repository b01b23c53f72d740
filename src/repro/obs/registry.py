"""The metrics registry: counters and snapshot-time collectors, plus the
standalone :class:`Histogram` (the traffic engine's flow latencies).

Design constraints (see ISSUE 1 and the in-band-telemetry shape of the
related P4/MRI work):

* **Labels.**  Every instrument carries a ``(name, labels)`` identity, so
  one logical metric ("packets forwarded") fans out into one series per
  switch/port/cause without the callers inventing name suffixes.
* **Near-zero overhead when disabled.**  A disabled registry hands out
  shared null instruments whose mutators are no-ops and allocates no
  series.  Hot paths capture instrument references once, at component
  init, so the steady-state cost of a disabled metric is a single no-op
  method call -- and components that already keep plain integer statistics
  can instead register a *collector*, sampled only at snapshot time, which
  costs literally nothing on the hot path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> Any:
        return self.value


class Histogram:
    """Cumulative-bucket histogram plus count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: Dict[str, Any],
        buckets: Sequence[float],
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile (0 < q <= 1) from the cumulative
        bucket counts, linearly interpolating inside the bucket that
        crosses rank ``q * count``.  The estimate is clamped to the
        observed [min, max], so with all observations in one bucket the
        answer stays within the data rather than the bucket bounds.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1]: {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = q * self.count
        cumulative = 0
        lower = self.min
        for i, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[i]
            if in_bucket and cumulative + in_bucket >= rank:
                fraction = (rank - cumulative) / in_bucket
                lo = max(lower, self.min)
                hi = min(bound, self.max)
                value = lo + max(0.0, hi - lo) * fraction
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
            lower = bound
        # rank falls in the overflow bucket: interpolate toward max
        in_bucket = self.bucket_counts[-1]
        if in_bucket:
            fraction = (rank - cumulative) / in_bucket
            lo = max(self.min, self.bounds[-1]) if self.bounds else self.min
            value = lo + max(0.0, self.max - lo) * fraction
            return min(max(value, self.min), self.max)
        return self.max

    def snapshot_value(self) -> Any:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.bucket_counts)},
                "+Inf": self.bucket_counts[-1],
            },
        }


class _NullInstrument:
    """Shared no-op counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


NULL_COUNTER = _NullInstrument()


class MetricsRegistry:
    """Series store keyed by ``(name, labels)`` plus lazy collectors."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._series: Dict[str, Dict[LabelKey, Any]] = {}
        #: (name, labels, fn) triples sampled only at snapshot time
        self._collectors: List[Tuple[str, Dict[str, Any], Callable[[], Any]]] = []

    # -- instrument factories -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        per_name = self._series.setdefault(name, {})
        key = _label_key(labels)
        counter = per_name.get(key)
        if counter is None:
            counter = per_name[key] = Counter(name, labels)
        return counter

    def collect(self, name: str, fn: Callable[[], Any], **labels: Any) -> None:
        """Register a zero-hot-path-cost series: ``fn`` is called only when
        a snapshot is taken and should return a number (or None to skip)."""
        if not self.enabled:
            return
        self._collectors.append((name, labels, fn))

    # -- queries ---------------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Any:
        """Current value of one series (None when absent)."""
        per_name = self._series.get(name)
        if per_name is not None:
            instrument = per_name.get(_label_key(labels))
            if instrument is not None:
                return instrument.snapshot_value()
        key = _label_key(labels)
        for cname, clabels, fn in self._collectors:
            if cname == name and _label_key(clabels) == key:
                return fn()
        return None

    def counters(self) -> Iterator[Tuple[str, LabelKey, Counter]]:
        """Every counter series as ``(name, label key, counter)``, in
        creation order (what the timeseries sampler walks each tick)."""
        for name, per_name in self._series.items():
            for key, counter in per_name.items():
                yield name, key, counter

    def snapshot(self) -> Dict[str, Any]:
        """All series, collectors included, as a JSON-ready dict."""
        out: Dict[str, Any] = {
            "enabled": self.enabled,
            # no series is ever refused; the key keeps snapshots (and the
            # documents embedding them) byte-identical
            "dropped_series": 0,
            "series": {},
        }
        if not self.enabled:
            return out
        series = out["series"]
        for name in sorted(self._series):
            rows = []
            for key in sorted(self._series[name], key=repr):
                instrument = self._series[name][key]
                rows.append(
                    {
                        "labels": {k: _jsonable(v) for k, v in key},
                        "type": instrument.kind,
                        "value": instrument.snapshot_value(),
                    }
                )
            series[name] = rows
        for name, labels, fn in self._collectors:
            value = fn()
            if value is None:
                continue
            series.setdefault(name, []).append(
                {
                    "labels": {k: _jsonable(v) for k, v in _label_key(labels)},
                    "type": "collected",
                    "value": _jsonable(value),
                }
            )
        return out

    def total(self, name: str) -> float:
        """Sum a numeric series across all labels (collectors included)."""
        result = 0.0
        for instrument in self._series.get(name, {}).values():
            value = instrument.snapshot_value()
            if isinstance(value, (int, float)):
                result += value
        for cname, _labels, fn in self._collectors:
            if cname == name:
                value = fn()
                if isinstance(value, (int, float)):
                    result += value
        return result


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
