"""repro.obs -- the simulation-wide telemetry layer.

Three pieces, built for the debugging story of section 6.7 and the
bench-trajectory needs of ROADMAP.md:

* :mod:`repro.obs.registry` -- a metrics registry (counters, gauges,
  histograms, high-water marks) with per-component labels and near-zero
  overhead when disabled.  Hot paths keep plain integer attributes and the
  registry *collects* them lazily at snapshot time, so the data plane pays
  nothing per packet for observability.
* :mod:`repro.obs.spans` -- span-style reconfiguration tracing: the §6.7
  merged log turned into structured spans (trigger -> epoch start -> tree
  stable -> topology at root -> tables loaded -> reopen) with per-switch
  and per-host blackout intervals.
* :mod:`repro.obs.artifact` -- the one artifact envelope: every
  ``repro.*/1`` document below is a schema table validated, read and
  written by its ``validate`` / ``read`` / ``write``.
* :mod:`repro.obs.export` -- the stable JSON schema every benchmark emits
  through ``benchmarks/bench_util.py``, so runs are machine-readable.
* :mod:`repro.obs.flight` -- the flight recorder: causally-linked events
  (message sends/receives, port transitions, timers, epoch phases, table
  loads) in bounded per-component rings, with ``why``/``wave`` queries.
* :mod:`repro.obs.perfetto` -- Chrome ``trace_event`` / Perfetto export
  of a flight recording (``repro.obs.flight/1``).
* :mod:`repro.obs.profiler` -- the event-loop profiler: wall-clock and
  event counts per handler category, and the ``events_per_sec`` baseline.
* :mod:`repro.obs.timeseries` -- the longitudinal sampler: periodic
  in-sim sampling of every gauge/counter/high-water plus FIFO occupancy,
  port states, epochs, and blackout flags into bounded rings, exported
  as ``repro.obs.timeseries/1`` with a window/delta/resample query API.
* :mod:`repro.obs.watch` -- the live dashboard: sampler rings rendered
  as per-switch terminal sparklines, live or replayed from an artifact.
* :mod:`repro.obs.regress` -- the bench-regression gate: an exact differ
  between a fresh ``repro.bench/1`` document and its committed baseline
  whose ``repro.obs.regress/2`` verdict CI gates on.
* :mod:`repro.obs.inband` -- in-band path telemetry: enabled data packets
  carry a bounded per-hop record stack (switch, ports, FIFO depth,
  timestamp); the host side folds delivered stacks into per-flow path
  records, link congestion tables, and delivery-SLO windows aligned to
  reconfiguration epochs, exported as ``repro.obs.inband/1``.
* :mod:`repro.obs.control` -- control-plane cost accounting: per-epoch
  counters of control-packet volume by message type and reconfiguration
  phase (election / loading / steady), plus retransmission and SRP
  tallies, behind the ``sim.control`` null fast path.
* :mod:`repro.obs.sweep` -- the scaling observatory: the one measured
  scenario (:mod:`repro.scenario`) run across a topology ladder (tori, fat-trees, DCells),
  recording convergence, blackout, control volume, FIFO depth and
  simulator throughput per rung into ``repro.obs.sweep/1`` with
  log-log slope fits per metric.

``python -m repro.obs`` exposes ``export``, ``why``, ``profile``,
``watch``, ``paths``, ``regress``, ``sweep``, and ``validate``.
"""

from repro.obs.artifact import SchemaError
from repro.obs.control import PHASES, ControlAccounting
from repro.obs.export import SCHEMA, bench_document, bench_result
from repro.obs.inband import (
    INBAND_SCHEMA,
    InbandConfig,
    InbandTelemetry,
    PathCollector,
    SloTracker,
    exact_quantile,
)
from repro.obs.flight import (
    ComponentRing,
    FlightEvent,
    FlightRecorder,
    render_chain,
)
from repro.obs.perfetto import (
    FLIGHT_SCHEMA,
    path_trace_document,
    trace_event_document,
)
from repro.obs.profiler import EventLoopProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    HighWater,
    MetricsRegistry,
    NULL_COUNTER,
)
from repro.obs.regress import (
    REGRESS_SCHEMA,
    compare,
    read_baseline,
)
from repro.obs.spans import ReconfigTracer, Span, SpanTracer
from repro.obs.sweep import (
    LADDERS,
    SWEEP_METRICS,
    SWEEP_SCHEMA,
    SweepPoint,
    fit_slope,
    fit_slopes,
    render_sweep,
    run_point,
    run_sweep,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesData,
    TimeSeries,
    TimeSeriesConfig,
    TimeSeriesSampler,
)

__all__ = [
    "SchemaError",
    "SCHEMA",
    "bench_document",
    "bench_result",
    "Counter",
    "Gauge",
    "Histogram",
    "HighWater",
    "MetricsRegistry",
    "NULL_COUNTER",
    "ReconfigTracer",
    "Span",
    "SpanTracer",
    "ComponentRing",
    "FlightEvent",
    "FlightRecorder",
    "render_chain",
    "FLIGHT_SCHEMA",
    "path_trace_document",
    "trace_event_document",
    "INBAND_SCHEMA",
    "InbandConfig",
    "InbandTelemetry",
    "PathCollector",
    "SloTracker",
    "exact_quantile",
    "EventLoopProfiler",
    "TIMESERIES_SCHEMA",
    "SeriesData",
    "TimeSeries",
    "TimeSeriesConfig",
    "TimeSeriesSampler",
    "REGRESS_SCHEMA",
    "compare",
    "read_baseline",
    "PHASES",
    "ControlAccounting",
    "LADDERS",
    "SWEEP_METRICS",
    "SWEEP_SCHEMA",
    "SweepPoint",
    "fit_slope",
    "fit_slopes",
    "render_sweep",
    "run_point",
    "run_sweep",
]
