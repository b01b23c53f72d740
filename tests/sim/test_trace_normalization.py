"""Clock-offset normalization edge cases for the §6.7 merged log.

The paper's merged-log tool is only as good as its timestamp
normalization: offsets that are slightly wrong can reorder causally
related events, and the per-switch circular buffers silently shed their
oldest records.  These tests pin both behaviors down.
"""

from repro.sim import trace
from repro.sim.trace import MergedLog, TraceLog


def make_pair(offset_a=10_000, offset_b=25_000):
    a = TraceLog("swA", clock_offset=offset_a)
    b = TraceLog("swB", clock_offset=offset_b)
    merged = MergedLog()
    merged.attach(a)
    merged.attach(b)
    return a, b, merged


def test_exact_offsets_restore_causal_order():
    a, b, merged = make_pair()
    a.log(100, "send")
    b.log(150, "receive")
    a.log(200, "ack")
    events = [(e.component, e.event) for e in merged.merged()]
    assert events == [("swA", "send"), ("swB", "receive"), ("swA", "ack")]
    # normalized times are global times again
    assert [e.local_time for e in merged.merged()] == [100, 150, 200]


def test_imperfect_offsets_reorder_close_events():
    """An offset error larger than the true inter-event gap inverts the
    order of a send and its matching receive -- the paper's warning that
    merging is only useful when normalization is precise."""
    a, b, merged = make_pair()
    a.log(100, "send")
    b.log(150, "receive")  # 50 ns after the send, causally dependent

    # underestimate swB's offset by 80 ns: its events appear 80 ns late...
    true_offset = b.clock_offset
    b.clock_offset = true_offset - 80
    assert [e.event for e in merged.merged()] == ["send", "receive"]
    # ...overestimate by 80 ns and the receive apparently precedes the send
    b.clock_offset = true_offset + 80
    assert [e.event for e in merged.merged()] == ["receive", "send"]


def test_missing_offset_defaults_to_zero_not_recorded():
    a, b, merged = make_pair(offset_a=5_000)
    a.log(100, "x")
    b.log(50, "y")
    # swA's offset unknown (0): its raw local clock (global+5000) is used,
    # pushing the earlier event after the later one
    a.clock_offset = 0
    events = [e.event for e in merged.merged()]
    assert events == ["y", "x"]


def test_equal_times_break_ties_by_component():
    a, b, merged = make_pair(offset_a=0, offset_b=0)
    b.log(100, "from-b")
    a.log(100, "from-a")
    assert [e.component for e in merged.merged()] == ["swA", "swB"]


def test_circular_buffer_sheds_oldest_but_counts_all(monkeypatch):
    monkeypatch.setattr(trace, "LOG_CAPACITY", 4)
    log = TraceLog("sw0")
    for i in range(10):
        log.log(i, f"e{i}")
    assert len(log) == 4
    assert log.total_logged == 10
    assert [e.event for e in log.entries()] == ["e6", "e7", "e8", "e9"]
    # dropped records are simply absent from the merge -- the §6.7 caveat
    # that a busy switch's circular log only covers the recent past
    merged = MergedLog()
    merged.attach(log)
    assert [e.event for e in merged.merged()] == ["e6", "e7", "e8", "e9"]


def test_overflowing_one_log_does_not_disturb_another(monkeypatch):
    monkeypatch.setattr(trace, "LOG_CAPACITY", 2)
    a = TraceLog("swA")
    monkeypatch.setattr(trace, "LOG_CAPACITY", 100)
    b = TraceLog("swB")
    merged = MergedLog()
    merged.attach(a)
    merged.attach(b)
    for i in range(5):
        a.log(i * 10, f"a{i}")
        b.log(i * 10 + 1, f"b{i}")
    events = [e.event for e in merged.merged()]
    assert events == ["b0", "b1", "b2", "a3", "b3", "a4", "b4"]
    assert a.total_logged == 5 and b.total_logged == 5


def test_clear_resets_entries_but_not_the_total(monkeypatch):
    monkeypatch.setattr(trace, "LOG_CAPACITY", 8)
    log = TraceLog("sw0")
    for i in range(3):
        log.log(i, "e")
    log.clear()
    assert len(log) == 0
    assert log.total_logged == 3  # the counter survives retrieval+clear
