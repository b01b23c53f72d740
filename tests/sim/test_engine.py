"""The event loop: ordering, cancellation, run bounds."""

import pytest

from repro.sim.engine import Simulator, cancel


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.at(300, order.append, "c")
    sim.at(100, order.append, "a")
    sim.at(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 300


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.at(50, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_after_is_relative():
    sim = Simulator()
    seen = []
    sim.at(100, lambda: sim.after(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [150]


def test_cancellation():
    sim = Simulator()
    seen = []
    event = sim.at(100, seen.append, "x")
    cancel(event)
    sim.run()
    assert seen == []
    assert sim.pending_events() == 0


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.at(100, seen.append, "early")
    sim.at(900, seen.append, "late")
    sim.run(until=500)
    assert seen == ["early"]
    assert sim.now == 500
    sim.run()
    assert seen == ["early", "late"]


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run_for(1000)
    assert sim.now == 1000
    sim.run_for(500)
    assert sim.now == 1500


def test_run_until_the_past_is_refused():
    """run(until=t) with t < now used to rewind the clock, and a later
    event then ran at 7 after one that had already run at 10."""
    sim = Simulator()
    seen = []
    sim.at(10, seen.append, 10)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.at(7, seen.append, 7)
    sim.run(until=10)  # the present is not the past
    assert sim.now == 10
    assert seen == [10]


def test_run_for_negative_is_refused():
    sim = Simulator()
    sim.run_for(100)
    with pytest.raises(ValueError):
        sim.run_for(-1)
    assert sim.now == 100
