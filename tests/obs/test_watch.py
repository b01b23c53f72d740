"""The watch dashboard: pure rendering over sampler views."""

import io

from repro.constants import SEC
from repro.network import Network
from repro.obs import watch
from repro.obs.timeseries import TimeSeries
from repro.obs.watch import (
    render_frame,
    sparkline,
    switch_names,
    truncate_document,
    watch_replay,
)
from repro.topology import ring


def test_sparkline_scaling_and_gaps():
    assert sparkline([0, 1, 2, 3, None, 4], width=6) == " ▂▄▆·█"
    assert sparkline([], width=6) == ""
    assert sparkline([None, None]) == "··"
    assert sparkline([5.0, 5.0]) == "██"  # constant positive saturates
    assert sparkline([0.0, 0.0]) == "  "
    # window: only the last `width` samples render
    assert len(sparkline(list(range(100)), width=8)) == 8
    # explicit bounds pin the scale
    assert sparkline([5.0], width=1, lo=0.0, hi=10.0) == "▄"


def _recorded_network():
    net = Network(ring(4), seed=0, timeseries=True)
    net.sim.at(1 * SEC, net.cut_link, 0, 1)
    net.run_for(3 * SEC)
    return net


def test_render_frame_is_pure_and_complete():
    net = _recorded_network()
    ts = net.sampler.view()
    frame = render_frame(ts, now_ns=net.sim.now, width=16)
    again = render_frame(ts, now_ns=net.sim.now, width=16)
    assert frame == again  # pure: same view, same pixels
    assert "\x1b" not in frame  # escapes live in the drivers, not the renderer
    for name in ("sw0", "sw1", "sw2", "sw3"):
        assert name in frame
    assert "epoch" in frame and "fifo^" in frame
    assert "recent reconfiguration events" in frame
    assert "table-loaded" in frame


def test_switch_names_natural_order():
    net = _recorded_network()
    assert switch_names(net.sampler.view()) == ["sw0", "sw1", "sw2", "sw3"]


def test_truncation_hides_the_future():
    net = _recorded_network()
    doc = net.sampler.document()
    early = TimeSeries(truncate_document(doc, 5))
    assert len(early.ticks) == 5
    frame = render_frame(early, now_ns=early.ticks[-1])
    # at 250ms nothing has been cut yet and no marks should show
    assert "t=+0.250s" in frame
    full = TimeSeries(truncate_document(doc, len(doc["ticks"])))
    assert full.ticks == doc["ticks"]


def test_watch_replay_steps_through_artifact(monkeypatch):
    monkeypatch.setattr(watch, "STEP", 10)
    net = _recorded_network()
    ts = net.sampler.view()
    buf = io.StringIO()
    watch_replay(ts, stream=buf, sleep=False)
    frames = buf.getvalue().split("\x1b[H\x1b[2J")[1:]
    assert len(frames) == (len(ts.ticks) + 9) // 10
    # later frames carry more history than earlier ones
    assert "ticks=1 " in frames[0]
