"""The traffic engine: workload execution plus the SLO observatory.

``Network(traffic=True | TrafficConfig)`` builds one :class:`TrafficEngine` as
``network.traffic``.  The model is a fluid one: logical hosts, no
packets.  Flows transfer at max-min fair rate shares computed from the
*live* forwarding tables (:mod:`repro.traffic.fluid`), re-solved when a
flow arrives or completes, when a table generation bumps, on any fault
(``Network._notify_fault``), and on every
:class:`~repro.obs.spans.ReconfigTracer` span event -- so the rate plan
reacts exactly when the control plane acts.  The engine is purely
observational: it schedules its own simulator events but never touches
a switch, link, or FIFO, so enabling it leaves the network's event
history unchanged and no data-path code knows it exists.  Its
per-packet ground truth (real hosts, real datagrams, small topologies)
is the test oracle ``tests/naive_traffic.py``.

The observatory prices reconfiguration in offered-load terms: offered
bytes accrue at access line rate from a flow's arrival until its bytes
are exhausted, delivered bytes accrue at the achieved rate, and the
shortfall -- the **blackout cost** -- is windowed against the tracer's
epoch spans in the exported ``repro.traffic/1`` artifact.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.constants import MS, SEC
from repro.sim.engine import cancel
from repro.traffic.artifact import TRAFFIC_SCHEMA
from repro.traffic.fluid import (
    LINK_CAPACITY,
    Pair,
    cable_hops,
    solve_rates,
    walk_path,
)
from repro.traffic.workload import Flow, TrafficConfig, generate_flows, host_switch

#: a flow is complete when its fluid remainder drops below half a byte
COMPLETE_EPS = 0.5

#: fluid solver pacing: batch window for arrival-triggered re-solves and
#: the minimum gap between any two solves
ARRIVAL_BATCH_NS = 10 * MS
MIN_RESOLVE_GAP_NS = 1 * MS
#: periodic re-solve/segment-roll interval while flows are active
RESOLVE_INTERVAL_NS = 50 * MS
#: forwarding-table walk bound (transient loops count as no-route)
MAX_HOPS = 64
#: accounting segments retained; further ones are counted, not kept
MAX_SEGMENTS = 65_536
#: flows echoed verbatim into the artifact's ``flows_sample``
SAMPLE_FLOWS = 32

#: delivery-latency histogram buckets (ns): 100us .. ~400s, geometric
LATENCY_BUCKETS = tuple(100_000 * 4 ** k for k in range(12))


class Histogram:
    """Cumulative-bucket histogram plus count/sum/min/max: the flow
    latencies behind the artifact's ``latency`` block."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float]) -> None:
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
        self.bucket_counts[bisect_left(self.bounds, value)] += 1  # first bound >= value

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
        # the overflow bucket interpolates toward max
        for in_bucket, bound in zip(self.bucket_counts, self.bounds + (self.max,)):
            if in_bucket and cumulative + in_bucket >= rank:
                fraction = (rank - cumulative) / in_bucket
                lo = max(lower, self.min)
                hi = min(bound, self.max)
                value = lo + max(0.0, hi - lo) * fraction
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
            lower = bound
        return self.max


class FlowRun:
    """Runtime state of one flow.  ``pair`` is None until the first solve
    after arrival, then the plan record (path, rate) the flow shares with
    every other flow between the same two switches."""

    __slots__ = ("flow", "switches", "state", "remaining", "pair", "latency_ns")

    def __init__(self, flow: Flow, n_switches: int) -> None:
        self.flow = flow
        #: (source switch, destination switch): the plan Pair the flow joins
        self.switches = (
            host_switch(flow.src_host, n_switches),
            host_switch(flow.dst_host, n_switches),
        )
        self.state = "pending"  # pending -> active -> completed
        self.remaining = float(flow.size_bytes)
        self.pair: Optional[Pair] = None
        self.latency_ns: Optional[int] = None


class TrafficEngine:
    """Workload execution + SLO accounting for one installation."""

    def __init__(self, network, config: TrafficConfig) -> None:
        self.network = network
        self.sim = network.sim
        self.config = config
        self.flows: List[Flow] = generate_flows(
            config, network.rng.fork("traffic").stream("workload")
        )
        #: indexed by flow id (generate_flows numbers flows 0..n-1)
        self.runs: List[FlowRun] = [FlowRun(f, len(network.switches)) for f in self.flows]
        # active flow id -> run: its iteration order is the summation
        # order of the segment totals.  Flows are numbered in arrival
        # order, so that is ascending id -- an order a copy keeps
        self._active: Dict[int, FlowRun] = {}
        #: active flows not yet in the plan (arrived since the last solve)
        self._arrivals: List[FlowRun] = []
        #: the rate plan: (src switch, dst switch) -> Pair, loaded pairs only
        self._pairs: Dict[Tuple[int, int], Pair] = {}
        #: per link id, the walked pairs crossing it (an ordered set) and
        #: the flows they carry: what solve_rates fills over
        self._crossing: List[Dict[Pair, None]] = []
        self._load: List[int] = []
        self.completed = 0

        # cumulative SLO aggregates (fluid bytes are floats)
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.deficit_bytes = 0.0
        self.latency_hist = Histogram(LATENCY_BUCKETS)

        # piecewise accounting segments: (t0, t1, offered, delivered, deficit)
        self.segments: List[tuple] = []
        self.segments_dropped = 0

        self.launched = False
        self._launch_ns = 0
        self._hops = cable_hops(network)

        # fluid solver pacing state
        self._last_advance = 0
        self._last_solve_ns = -(10 ** 18)
        self._walked_fp: Any = None
        self._fault_version = 0
        self._resolve_handle = None
        self._resolve_at = 0
        self._completion_handle = None

        if network.sampler is not None:
            self._install_collectors(network.sampler)
        if network.tracer is not None:
            network.tracer.add_listener(self._span_event)

    # -- timeseries collectors (literal names: RS304) --------------------------

    def _install_collectors(self, sampler) -> None:
        # the sampler floats what a collector returns
        sampler.add_collector("traffic_active_flows", partial(len, self._active))
        sampler.add_collector("traffic_unrouted_flows", self._unrouted)
        sampler.add_collector(
            "traffic_completed_flows", partial(getattr, self, "completed"), kind="counter"
        )
        sampler.add_collector(
            "traffic_offered_bytes", partial(getattr, self, "offered_bytes"), kind="counter"
        )
        sampler.add_collector(
            "traffic_delivered_bytes", partial(getattr, self, "delivered_bytes"), kind="counter"
        )
        sampler.add_collector(
            "traffic_blackout_cost_bytes", partial(getattr, self, "deficit_bytes"), kind="counter"
        )

    # -- workload launch --------------------------------------------------------------

    def launch(self) -> None:
        """Start the workload clock: flows arrive relative to *now*.

        Call after initial convergence (the scenario driver does) so the
        workload measures a running network's reconfigurations, not its
        boot."""
        if self.launched:
            raise RuntimeError("traffic workload already launched")
        self.launched = True
        self._launch_ns = self.sim.now
        self._last_advance = self.sim.now
        for run in self.runs:
            self.sim.at(self._launch_ns + run.flow.arrival_ns, self._arrive, run)

    # -- event hooks ------------------------------------------------------------------

    def note_fault(self, kind: str) -> None:
        """A fault or a flap edge: paths may have moved without any table
        generation changing, so force a re-walk soon."""
        self._fault_version += 1
        if self.launched:
            self._request_resolve(0)

    def _span_event(self, t_ns: int, component: str, event: str, attrs) -> None:
        # table loads/clears bump table generations; re-solve promptly so
        # blackout windows get sharp edges
        if self.launched:
            self._request_resolve(0)

    # -- the rate plan ----------------------------------------------------------------

    def _arrive(self, run: FlowRun) -> None:
        self._advance(self.sim.now)
        run.state = "active"
        self._arrivals.append(run)
        self._active[run.flow.flow_id] = run
        self._request_resolve(ARRIVAL_BATCH_NS)

    def _request_resolve(self, delay_ns: int) -> None:
        """Schedule a re-solve no later than now+delay, coalescing with
        any pending request and respecting the minimum solve gap."""
        target = max(
            self.sim.now + delay_ns,
            self._last_solve_ns + MIN_RESOLVE_GAP_NS,
        )
        if self._resolve_handle is not None:
            if self._resolve_at <= target:
                return
            cancel(self._resolve_handle)
        self._resolve_handle = self.sim.at(target, self._resolve_timer)
        self._resolve_at = target

    def _resolve_timer(self) -> None:
        self._resolve_handle = None
        self._resolve()

    def _resolve(self) -> None:
        now = self.sim.now
        self._advance(now)
        if self._completion_handle is not None:
            cancel(self._completion_handle)
            self._completion_handle = None
        if not self._active:
            return
        pairs = self._pairs
        load = self._load
        fresh: List[Pair] = []  # the pairs to walk: the new ones, or all of them
        for run in self._arrivals:
            pair = pairs.get(run.switches)
            if pair is None:
                pair = pairs[run.switches] = Pair(run.switches)
                fresh.append(pair)
            for link in pair.links or ():  # a flow joining a walked pair loads its links
                load[link] += 1
            pair.count += 1
            run.pair = pair
        self._arrivals.clear()
        # what a walk depends on: every table's generation counter
        # (bumped on each load/clear) and the faults and link edges so far
        fingerprint = (
            tuple(switch.table.generation for switch in self.network.switches),
            self._fault_version,
        )
        if fingerprint != self._walked_fp:
            self._walked_fp = fingerprint
            n_links = len(self._hops) // 2  # two ends per cable
            self._crossing = [{} for _ in range(n_links)]
            self._load = load = [0] * n_links
            fresh = list(pairs.values())
        crossing = self._crossing
        for pair in fresh:  # a walked pair enters the per-link lists
            pair.links = walk_path(self.network, self._hops, *pair.switches, MAX_HOPS)
            for link in pair.links or ():
                crossing[link][pair] = None
                load[link] += pair.count
        solve_rates(pairs.values(), crossing, load)
        self._last_solve_ns = now
        best = None  # the earliest instant a flow finishes at these rates
        for run in self._active.values():
            rate = run.pair.rate
            if rate > 0.0:
                t = now + run.remaining / rate
                if best is None or t < best:
                    best = t
        if best is not None:
            self._completion_handle = self.sim.at(int(best) + 1, self._completion_timer)
        self._request_resolve(RESOLVE_INTERVAL_NS)

    def _completion_timer(self) -> None:
        self._completion_handle = None
        self._advance(self.sim.now)
        self._request_resolve(0)

    def _advance(self, now: int) -> None:
        """Integrate the piecewise-constant rate plan up to ``now``."""
        dt = now - self._last_advance
        if dt <= 0:
            return
        self._last_advance = now
        if not self._active:
            return
        budget = LINK_CAPACITY * dt  # what one flow offers at line rate
        seg_offered = 0.0
        seg_delivered = 0.0
        seg_deficit = 0.0
        finished: List[FlowRun] = []
        for run in self._active.values():
            remaining = run.remaining
            offered = budget if budget < remaining else remaining
            seg_offered += offered
            pair = run.pair
            if pair is None:
                # awaiting its first solve (up to arrival_batch_ns): that
                # is admission latency, not blackout -- nothing charged
                continue
            if pair.links is None:
                # the table walk found no route (blackout or partition):
                # the whole demand goes undelivered -- the §6.7 cost
                seg_deficit += offered
                continue
            delivered = pair.rate * dt
            if delivered > remaining:
                delivered = remaining
            seg_delivered += delivered
            run.remaining = remaining = remaining - delivered
            if remaining <= COMPLETE_EPS:
                finished.append(run)
        self.offered_bytes += seg_offered
        self.delivered_bytes += seg_delivered
        self.deficit_bytes += seg_deficit
        if len(self.segments) < MAX_SEGMENTS:
            self.segments.append(
                (now - dt, now, seg_offered, seg_delivered, seg_deficit)
            )
        else:
            self.segments_dropped += 1
        for run in finished:
            self._complete(run, now)

    def _complete(self, run: FlowRun, now: int) -> None:
        run.state = "completed"
        run.latency_ns = now - (self._launch_ns + run.flow.arrival_ns)
        self.latency_hist.observe(float(run.latency_ns))
        del self._active[run.flow.flow_id]
        self.completed += 1
        pair = run.pair
        pair.count -= 1
        links = pair.links or ()
        for link in links:
            self._load[link] -= 1
        if not pair.count:
            del self._pairs[pair.switches]
            for link in links:
                self._crossing[link].pop(pair, None)

    def _unrouted(self) -> int:
        """Active flows whose walk found no route."""
        return sum(p.count for p in self._pairs.values() if p.links is None)

    # -- SLO invariants (chaos campaigns) --------------------------------------------

    def slo_violations(self) -> List[str]:
        """Permanent-goodput-loss check for quiescent points: an active
        flow whose endpoints are alive and physically connected must
        have a forwarding path."""
        if not self.launched:
            return []
        components = self.network.operational_components()
        member = {index: component for component in components for index in component}
        routed: Dict[Tuple[int, int], bool] = {}  # one fresh walk per pair
        out: List[str] = []
        for fid, run in self._active.items():  # ascending id
            src, dst = run.switches
            if member.get(src) is None or member.get(dst) is not member.get(src):
                continue  # partitioned or dead endpoints: loss is expected
            if run.switches not in routed:
                path = walk_path(self.network, self._hops, src, dst, MAX_HOPS)
                routed[run.switches] = path is not None
            if not routed[run.switches]:
                out.append(
                    f"flow {fid} (h{run.flow.src_host}@sw{src} -> "
                    f"h{run.flow.dst_host}@sw{dst}): no route at quiescence"
                )
        return out

    # -- export -----------------------------------------------------------------------

    def _windows(self) -> List[Dict[str, Any]]:
        """Per-epoch blackout-cost windows: segment totals prorated onto
        each reconfiguration span of the tracer."""
        tracer = self.network.tracer
        if tracer is None:
            return []
        now = self.sim.now
        out = []
        for span in tracer.span_summary():
            start = span["start_ns"]
            end = span["end_ns"] if span["end_ns"] is not None else now
            offered = delivered = deficit = 0.0
            for t0, t1, seg_offered, seg_delivered, seg_deficit in self.segments:
                lo = max(t0, start)
                hi = min(t1, end)
                if hi <= lo:
                    continue
                fraction = (hi - lo) / (t1 - t0)
                offered += seg_offered * fraction
                delivered += seg_delivered * fraction
                deficit += seg_deficit * fraction
            duration = end - start
            out.append({
                "epoch": span["key"],
                "start_ns": start,
                "end_ns": span["end_ns"],
                "max_blackout_ns": span.get("max_blackout_ns"),
                "offered_bytes": round(offered, 3),
                "delivered_bytes": round(delivered, 3),
                "blackout_cost_bytes": round(deficit, 3),
                "goodput_bytes_per_sec": delivered / duration * SEC if duration > 0 else None,
            })
        return out

    def document(self, name: str = "") -> Dict[str, Any]:
        """The ``repro.traffic/1`` artifact as a dict."""
        if self.launched:
            self._advance(self.sim.now)
        elapsed = self.sim.now - self._launch_ns if self.launched else 0
        hist = self.latency_hist
        sample = []
        for flow in self.flows[:SAMPLE_FLOWS]:
            run = self.runs[flow.flow_id]
            state = run.state
            if state == "active" and run.pair is not None and run.pair.links is None:
                state = "unrouted"
            sample.append({
                "flow_id": flow.flow_id,
                "arrival_ns": flow.arrival_ns,
                "src_host": flow.src_host,
                "dst_host": flow.dst_host,
                "size_bytes": flow.size_bytes,
                "state": state,
                "latency_ns": run.latency_ns,
            })
        return {
            "schema": TRAFFIC_SCHEMA,
            "name": name,
            "config": {
                "pattern": self.config.pattern,
                "mode": "fluid",
                "flows": self.config.flows,
                "hosts": self.config.hosts,
                "mean_flow_bytes": self.config.mean_flow_bytes,
                "duration_ns": self.config.duration_ns,
            },
            "launched": self.launched,
            "time_ns": self.sim.now,
            "generated_flows": len(self.flows),
            "flows_completed": self.completed,
            "flows_active": len(self._active),
            "flows_pending": len(self.flows) - self.completed - len(self._active),
            "flows_unrouted": self._unrouted(),
            "offered_bytes": round(self.offered_bytes, 3),
            "delivered_bytes": round(self.delivered_bytes, 3),
            "blackout_cost_bytes": round(self.deficit_bytes, 3),
            "goodput_bytes_per_sec": self.delivered_bytes / elapsed * SEC if elapsed > 0 else None,
            "latency": {
                "count": hist.count,
                "p50_ns": hist.quantile(0.5),
                "p99_ns": hist.quantile(0.99),
                "mean_ns": hist.mean if hist.count else None,
                "max_ns": hist.max,
            },
            # constants kept so fluid documents stay byte-identical to the
            # ones written while a per-packet mode shared this schema
            "drops": {},
            "packets_delivered": 0,
            "segments": {
                "recorded": len(self.segments),
                "dropped": self.segments_dropped,
            },
            "windows": self._windows(),
            "flows_sample": sample,
        }
