"""Tracing for the per-layer ledger: measured from outside the program.

Two instruments, both installed by the benchmark and only in a *traced*
round (end-to-end metrics are always measured with tracing off):

* :class:`LayerProfiler` plugs into the simulator's duck-typed
  ``sim.profiler`` seam (``begin_run`` / ``end_run`` /
  ``account_call(fn, wall_ns)``).  Each dispatched handler's host time,
  inclusive of everything it calls, is attributed to the *layer* of the
  handler's own module: ``repro.net.fifo`` -> ``net``.  Layer totals by
  module prefix are the stable contract; the named sub-rows (today's hot
  handlers) simply read 0 if a later change removes the handler.
* :class:`SpanRecorder` wraps the public calls at each layer boundary
  and records one span per call -- name, start, end, parent span -- in
  memory; :func:`Tracer.dump` writes them out when the round ends.  A
  span's *self* time is its duration minus the part its child spans
  cover.

Exact counts come from the program's public counters, read after the
run.  Metrics ending in ``_s`` are host seconds in the traced round and
carry its overhead; everything else is an exact count or a ratio of
exact counts and repeats bit for bit.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``repro.<layer>`` prefixes with a row in the ledger
LAYERS = (
    "sim",
    "net",
    "core",
    "host",
    "traffic",
    "obs",
    "chaos",
    "analysis",
    "topology",
    "network",
)

#: ledger sub-row -> handler ``__qualname__`` prefixes it sums
HANDLER_ROWS = (
    ("sim.timer", "sim", ("",)),
    ("net.fifo_boundary", "net", ("ReceiveFifo._on_boundary",)),
    ("net.sched_scan", "net", ("SchedulingEngine._scan",)),
    ("net.linkunit", "net", ("LinkUnit.rx_",)),
    ("core.autopilot_process", "core", ("Autopilot._process",)),
    ("core.monitor_sample", "core", ("Monitoring.sample_all",)),
    ("core.monitor_probe", "core", ("Monitoring.probe_all",)),
    ("traffic.resolve", "traffic", ("TrafficEngine._resolve_timer",)),
)

#: span names that are invariant sweeps (``analysis.check.*``)
CHECK_SPANS = ("check_partition_routing", "quiescent_checks")
#: the campaign runner's own loops: their self time is ``chaos.self_s``
RUNNER_SPANS = (
    "CampaignRunner.run_schedule",
    "CampaignRunner.build_network",
    "Network.run_until_converged",
)
#: span names that write or validate an observer artifact (``obs.export_s``)
EXPORT_SPANS = (
    "Network.export_flight_trace",
    "Network.export_timeseries",
    "Network.export_inband",
    "Network.telemetry",
)


def layer_of(module: Optional[str]) -> str:
    """The ledger layer of a handler's module; ``other`` if none matches."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerProfiler:
    """``sim.profiler`` classifier: host time and events per handler code."""

    def __init__(self) -> None:
        #: code object (or callable) -> [events, wall_ns, module, qualname]
        self.handlers: Dict[Any, List[Any]] = {}
        self.run_calls = 0
        self.run_ns = 0
        self._run_started = 0

    def reset(self) -> None:
        """Forget everything accounted so far (the set-up phase)."""
        self.handlers.clear()
        self.run_calls = 0
        self.run_ns = 0

    def begin_run(self) -> None:
        self.run_calls += 1
        self._run_started = perf_counter_ns()

    def end_run(self) -> None:
        self.run_ns += perf_counter_ns() - self._run_started

    def account_call(self, fn: Any, wall_ns: int) -> None:
        func = getattr(fn, "__func__", fn)
        # closures are a fresh function object per call site execution;
        # their shared code object is the stable identity
        key = getattr(func, "__code__", func)
        entry = self.handlers.get(key)
        if entry is None:
            module = getattr(func, "__module__", None)
            qualname = getattr(func, "__qualname__", None) or repr(func)
            entry = self.handlers[key] = [0, 0, module, qualname]
        entry[0] += 1
        entry[1] += wall_ns

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (events, wall_ns), ``other`` included."""
        out: Dict[str, Tuple[int, int]] = {}
        for events, wall_ns, module, _qualname in self.handlers.values():
            layer = layer_of(module)
            seen = out.get(layer, (0, 0))
            out[layer] = (seen[0] + events, seen[1] + wall_ns)
        return out

    def row(self, layer: str, prefixes: Sequence[str]) -> Tuple[int, int]:
        """(events, wall_ns) of one layer's handlers matching a prefix."""
        events = wall_ns = 0
        for count, ns, module, qualname in self.handlers.values():
            if layer_of(module) == layer and qualname.startswith(tuple(prefixes)):
                events += count
                wall_ns += ns
        return events, wall_ns

    def unmatched_modules(self) -> List[str]:
        """Handler modules that mapped to no named layer."""
        return sorted(
            {str(m) for _e, _ns, m, _q in self.handlers.values() if layer_of(m) == "other"}
        )


class SpanRecorder:
    """In-memory spans around wrapped calls: [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()

        return traced

    def total(
        self, names: Iterable[str], outermost: bool = False, first: int = 0
    ) -> Tuple[int, int]:
        """(calls, duration_ns) over spans named in ``names``, from span
        index ``first`` on.

        With ``outermost`` a span nested directly inside another span of
        the same set adds a call but no time (``quiescent_checks`` calls
        ``check_partition_routing``; its time is already counted).
        """
        wanted = frozenset(names)
        calls = duration = 0
        for name, start, end, parent in self.spans[first:]:
            if name not in wanted:
                continue
            calls += 1
            if outermost and parent >= 0 and self.spans[parent][0] in wanted:
                continue
            duration += end - start
        return calls, duration

    def self_time(self, names: Iterable[str], first: int = 0) -> int:
        """Duration of the named spans (from index ``first`` on) minus what
        their child spans cover."""
        wanted = frozenset(names)
        children: Dict[int, int] = {}
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] = children.get(parent, 0) + (end - start)
        return sum(
            (end - start) - children.get(index, 0)
            for index, (name, start, end, _parent) in enumerate(self.spans)
            if index >= first and name in wanted
        )


class Tracer:
    """Installs both instruments on the program's public surface."""

    def __init__(self) -> None:
        self.profiler = LayerProfiler()
        self.recorder = SpanRecorder()
        #: every Network built while installed (chaos builds one per schedule)
        self.networks: List[Any] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: where the measured phase starts: first span index, counter values
        self.first_span = 0
        self.counters_before: Dict[str, float] = {}

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(name, original))

    def install(self) -> None:
        """Wrap the layer-boundary calls.  Functions imported by name
        elsewhere are patched at every binding the program calls through."""
        from repro import network
        from repro.chaos import campaign, checks
        from repro.core import reconfig, routing
        from repro.sim import engine
        from repro.topology import generators
        from repro.traffic import artifact, fluid
        from repro.traffic import engine as traffic_engine

        for owner in (generators, campaign):
            self._patch(owner, "resolve_topology", "resolve_topology")
        for owner in (routing, reconfig):
            self._patch(owner, "build_forwarding_entries", "build_forwarding_entries")
        for owner in (checks, campaign):
            self._patch(owner, "check_partition_routing", "check_partition_routing")
            self._patch(owner, "quiescent_checks", "quiescent_checks")
        for owner in (fluid, traffic_engine):
            self._patch(owner, "solve_rates", "solve_rates")
            self._patch(owner, "walk_path", "walk_path")
        self._patch(artifact, "validate_traffic", "validate_traffic")
        self._patch(engine.Simulator, "run", "Simulator.run")
        for method in ("sample_schedule", "build_network", "run_schedule"):
            self._patch(campaign.CampaignRunner, method, f"CampaignRunner.{method}")
        for method in (
            "add_host",
            "converged",
            "run_until_converged",
            "traffic_doc",
            *(name.split(".")[1] for name in EXPORT_SPANS),
        ):
            self._patch(network.Network, method, f"Network.{method}")

        # Network.__init__ also attaches the profiler and registers the
        # installation, so networks built deep inside the chaos runner are
        # seen without the program knowing about the benchmark
        init = network.Network.__init__
        traced_init = self.recorder.wrap("Network.__init__", init)
        tracer = self

        @functools.wraps(init)
        def init_and_attach(net: Any, *args: Any, **kwargs: Any) -> None:
            traced_init(net, *args, **kwargs)
            net.sim.profiler = tracer.profiler
            tracer.networks.append(net)

        self._undo.append((network.Network, "__init__", init))
        network.Network.__init__ = init_and_attach

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def begin_measure(self) -> None:
        """The set-up phase is over: the ledger covers what follows (only
        ``topology.resolve_s`` and ``network.build_s`` span the round)."""
        self.profiler.reset()
        self.first_span = len(self.recorder.spans)
        self.counters_before = read_counters(self.networks)

    # -- results -----------------------------------------------------------------

    def dump(self, path: str, workload: str, round_id: str) -> None:
        """Write the round's spans: one row per call, parents by index."""
        doc = {
            "schema": "bench_e2e.spans/1",
            "workload": workload,
            "round": round_id,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.recorder.spans,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def read_counters(networks: Sequence[Any]) -> Dict[str, float]:
    """The program's public counters, summed over every installation."""
    switches = [sw for net in networks for sw in net.switches]
    ports = [unit for sw in switches for unit in sw.ports.values() if unit.connected]
    hosts = [host for net in networks for host in net.hosts.values()]
    engines = [net.traffic for net in networks if net.traffic is not None]
    return {
        "net.sched_grants": sum(sw.engine.grants for sw in switches),
        "net.packets_forwarded": sum(sw.packets_forwarded for sw in switches),
        "net.packets_to_cp": sum(sw.packets_to_cp for sw in switches),
        "net.packets_discarded": sum(sw.packets_discarded for sw in switches),
        "net.overflow_drops": sum(unit.overflow_drops for unit in ports),
        "cut_through": sum(unit.fifo.cut_through_packets for unit in ports),
        "buffered": sum(unit.fifo.buffered_packets for unit in ports),
        "fifo_packets": sum(unit.fifo.packets_seen for unit in ports),
        "core.epochs": sum(len(net.epochs) for net in networks),
        "core.packets_handled": sum(
            ap.packets_handled for net in networks for ap in net.autopilots
        ),
        "host.packets_sent": sum(host.packets_sent for host in hosts),
        "host.packets_received": sum(host.packets_received for host in hosts),
        "host.tx_dropped": sum(host.packets_dropped_tx for host in hosts),
        "host.rx_dropped": sum(host.packets_dropped_rx for host in hosts),
        "chaos.faults_injected": sum(
            int(net.sim.metrics.total("faults_injected"))
            for net in networks
            if net.telemetry_enabled
        ),
        "traffic.flows_completed": sum(engine.completed for engine in engines),
        "obs.flight_records": sum(
            net.flight.total_recorded for net in networks if net.flight is not None
        ),
        "obs.inband_hops": sum(
            net.inband.hops_recorded for net in networks if net.inband is not None
        ),
        "obs.control_packets": sum(
            net.control.packets for net in networks if net.control is not None
        ),
    }


def build_ledger(tracer: Tracer, artifact_bytes: int, slowdown: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except the rows the caller
    owns (``bench.trace_overhead``, ``analysis.violations``, ``model.*``).
    Host seconds are divided by ``slowdown``, the round's measured host
    speed relative to the reference host."""
    profiler = tracer.profiler
    recorder = tracer.recorder
    first = tracer.first_span
    out: Dict[str, float] = {}

    def seconds(ns: int) -> float:
        return ns / 1e9 / slowdown

    # -- handler time by layer (measured phase) ------------------------------------
    layers = profiler.by_layer()
    handler_ns = sum(ns for _events, ns in layers.values())
    events = sum(count for count, _ns in layers.values())
    out["sim.events"] = events
    out["sim.run_calls"] = profiler.run_calls
    out["sim.run_s"] = seconds(profiler.run_ns)
    out["sim.loop_self_s"] = seconds(profiler.run_ns - handler_ns)
    out["sim.us_per_event"] = _ratio(seconds(profiler.run_ns) * 1e6, events)
    for layer in ("net", "core", "host", "traffic", "obs"):
        count, ns = layers.get(layer, (0, 0))
        out[f"{layer}.events"] = count
        out[f"{layer}.handler_s"] = seconds(ns)
    for row, layer, prefixes in HANDLER_ROWS:
        count, ns = profiler.row(layer, prefixes)
        out[f"{row}.events"] = count
        out[f"{row}.s"] = seconds(ns)
    out["bench.other_share"] = _ratio(layers.get("other", (0, 0))[1], handler_ns)
    out["core.retransmits"] = profiler.row("core", ("ReconfigEngine._retransmit",))[0]

    # -- spans at the layer boundaries ---------------------------------------------
    def span(names: Sequence[str], outermost: bool = False, since: int = first):
        calls, ns = recorder.total(names, outermost, since)
        return calls, seconds(ns)

    # building happens in set-up (except for chaos): these two span the round
    out["topology.resolve_s"] = span(["resolve_topology"], since=0)[1]
    out["network.build_s"] = span(["Network.__init__", "Network.add_host"], since=0)[1]
    out["network.converged.calls"], out["network.converged.s"] = span(["Network.converged"])
    out["core.route_build.calls"], out["core.route_build.s"] = span(["build_forwarding_entries"])
    out["analysis.check.calls"], out["analysis.check.s"] = span(CHECK_SPANS, outermost=True)
    out["chaos.schedules"] = span(["CampaignRunner.run_schedule"])[0]
    out["chaos.sample_s"] = span(["CampaignRunner.sample_schedule"])[1]
    out["chaos.self_s"] = seconds(recorder.self_time(RUNNER_SPANS, first))
    out["traffic.solve.calls"], out["traffic.solve.s"] = span(["solve_rates"])
    out["traffic.walk.calls"], out["traffic.walk.s"] = span(["walk_path"])
    out["traffic.doc_s"] = span(["Network.traffic_doc", "validate_traffic"])[1]
    out["obs.export_s"] = span(EXPORT_SPANS)[1]
    out["obs.artifact_bytes"] = artifact_bytes

    # -- public counters: what the measured phase added ----------------------------
    networks = tracer.networks
    before = tracer.counters_before
    counters = {key: value - before.get(key, 0) for key, value in read_counters(networks).items()}
    for key, value in counters.items():
        if "." in key:
            out[key] = value
    out["net.sched_grant_ratio"] = _ratio(out["net.sched_grants"], out["net.sched_scan.events"])
    out["net.cut_through_ratio"] = _ratio(
        counters["cut_through"], counters["cut_through"] + counters["buffered"]
    )
    out["net.boundary_per_packet"] = _ratio(
        out["net.fifo_boundary.events"], counters["fifo_packets"]
    )
    out["net.fifo_highwater_bytes"] = max(
        (
            unit.fifo.max_level
            for net in networks
            for sw in net.switches
            for unit in sw.ports.values()
            if unit.connected
        ),
        default=0,
    )
    out["core.route_build_per_epoch"] = _ratio(out["core.route_build.calls"], out["core.epochs"])
    out["host.delivered_ratio"] = _ratio(out["host.packets_received"], out["host.packets_sent"])
    flows = sum(len(net.traffic.flows) for net in networks if net.traffic is not None)
    out["traffic.completed_ratio"] = _ratio(out["traffic.flows_completed"], flows)
    return out
