"""One ring that holds what it recorded behaves as the two it replaced.

``repro.obs.flight.Ring`` is a ``deque(maxlen=capacity)`` plus its
``total``; the flight recorder's ``ComponentRing`` and the sampler's
``SeriesRing`` that it replaced preallocated ``[None] * capacity`` and
wrapped an index around it (``tests/naive_artifact.py``).  A **Hypothesis
differential** appends the same sequence to both: flight events (never
None) against ``ComponentRing`` and samples (gaps included) against
``SeriesRing``, and after every append holds the evicted event,
``items()`` against ``events()`` / ``values()``, ``len``, ``total`` and
``dropped`` equal.  CI also runs this file in the ``determinism`` job
under ``PYTHONHASHSEED=0`` and ``=random``.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import FlightEvent, Ring
from tests import naive_artifact

_SAMPLES = st.lists(st.none() | st.floats(allow_nan=False) | st.integers(), max_size=80)


@settings(max_examples=400, deadline=None)
@given(capacity=st.integers(1, 9) | st.sampled_from([64, 65536]), samples=_SAMPLES)
def test_the_ring_matches_the_preallocated_rings(capacity, samples):
    events, component = Ring(capacity), naive_artifact.ComponentRing("sw0", capacity)
    series, old_series = Ring(capacity), naive_artifact.SeriesRing("s", {}, "gauge", capacity, 0)
    for eid, sample in enumerate(samples):
        event = FlightEvent(eid, eid, "sw0", "msg", "e", None, {})
        assert events.append(event) is component.append(event)
        series.append(sample)
        old_series.append(sample)
        assert events.items() == component.events()
        assert series.items() == old_series.values()
        for new, old in ((events, component), (series, old_series)):
            assert (len(new), new.total, new.dropped) == (len(old), old.total, old.dropped)


def test_an_empty_ring_allocates_nothing_for_its_capacity():
    ring = Ring(65536)
    assert sys.getsizeof(ring) + sys.getsizeof(ring._buf) < 1024
    old = naive_artifact.ComponentRing("sw0", 65536)
    assert sys.getsizeof(old._buf) > 65536 * 8  # what every flight component cost
