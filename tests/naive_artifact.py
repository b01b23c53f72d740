"""Naive references for the observer layer's spec walk and its rings.

``src/`` compiles each ``repro.*/1`` spec once, where it is declared,
into one closure per node (``repro.obs.artifact.compile_spec``), and keeps
every bounded history in one ``deque``-backed ``repro.obs.flight.Ring``
that allocates only what it holds.  This module keeps what they replaced,
as the oracles they are pinned to:

* :func:`defect` -- the recursive walk that dispatched on ``type(spec)``
  at every node of every value, verbatim apart from the leaves' two
  ``accepts`` methods, which are the function :func:`accepts` here;
* :class:`ComponentRing` and :class:`SeriesRing` -- the flight recorder's
  and the sampler's rings, which preallocated ``[None] * capacity``
  (65 536 slots per flight component, 1 024 per series) and wrapped an
  index around it, verbatim.

``tests/obs/test_spec_oracle.py`` and ``tests/obs/test_ring_oracle.py``
hold ``src/`` equal to them.  Nothing under ``src/`` may import this
module.
"""

from typing import Any, List, Optional, Tuple

from repro.obs.artifact import SCALAR, Atom, Enum, Opt


def accepts(spec: Any, value: Any) -> bool:
    """``Atom.accepts`` / ``Enum.accepts`` as they were."""
    if type(spec) is Enum:
        return value in spec.choices
    if not isinstance(value, spec.types):
        return False
    if isinstance(value, bool) and bool not in spec.types:
        return False
    if spec.minimum is not None and value < spec.minimum:
        return False
    return not spec.nonempty or bool(value)


def defect(spec: Any, value: Any) -> Optional[Tuple[str, str]]:
    """``(path suffix, why)`` of the first place ``value`` departs from
    ``spec``, else None: the walk :func:`check` raises from, for hooks
    that format their own path only on failure.  The suffix is assembled
    on the way out of a failure, so a conforming 20k-event trace formats
    no strings."""
    kind = type(spec)
    if kind is Atom or kind is Enum:
        if not accepts(spec, value):
            got = repr(value) if accepts(SCALAR, value) else type(value).__name__
            return "", f"expected {spec.expected}, got {got}"
    elif kind is dict:
        if not isinstance(value, dict):
            return "", "expected object"
        for key, sub in spec.items():
            bad = defect(sub, value.get(key))
            if bad:
                return f".{key}{bad[0]}", bad[1]
    elif kind is list:
        if not isinstance(value, list):
            return "", "expected array"
        for i, item in enumerate(value):
            bad = defect(spec[0], item)
            if bad:
                return f"[{i}]{bad[0]}", bad[1]
    elif kind is tuple:
        if not isinstance(value, list) or len(value) != len(spec):
            return "", f"expected array of {len(spec)} items"
        for i, (sub, item) in enumerate(zip(spec, value)):
            bad = defect(sub, item)
            if bad:
                return f"[{i}]{bad[0]}", bad[1]
    elif kind is Opt:
        return None if value is None else defect(spec.spec, value)
    else:  # Map
        if not isinstance(value, dict):
            return "", "expected object"
        for key, item in value.items():
            if not accepts(spec.keys, key):
                return "", f"key {key!r}: expected {spec.keys.expected}"
            bad = defect(spec.values, item)
            if bad:
                return f".{key}{bad[0]}", bad[1]
    return None


class ComponentRing:
    """Bounded circular buffer of events for one component.

    Like the paper's per-switch circular logs: overflow silently evicts
    the *oldest* record but keeps counting, so ``dropped`` reports how
    much history was lost.
    """

    def __init__(self, component: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.component = component
        self.capacity = capacity
        self._buf: List[Optional[Any]] = [None] * capacity
        self._next = 0
        #: total events ever appended (>= len(self))
        self.total = 0

    def append(self, event: Any) -> Optional[Any]:
        """Append; returns the evicted event when the ring was full."""
        evicted = self._buf[self._next] if self.total >= self.capacity else None
        self._buf[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.total += 1
        return evicted

    @property
    def dropped(self) -> int:
        return max(0, self.total - self.capacity)

    def events(self) -> List[Any]:
        """Retained events, oldest first."""
        if self.total < self.capacity:
            return [e for e in self._buf[: self.total] if e is not None]
        return [
            e
            for e in self._buf[self._next :] + self._buf[: self._next]
            if e is not None
        ]

    def __len__(self) -> int:
        return min(self.total, self.capacity)


class SeriesRing:
    """Bounded ring of samples for one series, aligned to sampler ticks.

    The sampler appends to every live ring each tick, so a ring created
    at tick ``k`` holds values for ticks ``k, k+1, ...`` (newest
    ``capacity`` of them); alignment against the shared tick ring is
    positional from the end.
    """

    __slots__ = ("name", "labels", "kind", "capacity", "_buf", "_next",
                 "total", "created_tick")

    def __init__(self, name: str, labels: dict, kind: str,
                 capacity: int, created_tick: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.capacity = capacity
        self._buf: List[Optional[float]] = [None] * capacity
        self._next = 0
        #: total samples ever appended (>= len(self))
        self.total = 0
        #: global tick index at which this series first sampled
        self.created_tick = created_tick

    def append(self, value: Optional[float]) -> None:
        self._buf[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self.total += 1

    @property
    def dropped(self) -> int:
        return max(0, self.total - self.capacity)

    def values(self) -> List[Optional[float]]:
        """Retained samples, oldest first."""
        if self.total < self.capacity:
            return list(self._buf[: self.total])
        return self._buf[self._next:] + self._buf[: self._next]

    def __len__(self) -> int:
        return min(self.total, self.capacity)
