"""The top-level facade: build, run, and break an Autonet.

`Network` wires a :class:`~repro.topology.TopologySpec` into simulated
switches running Autopilot, attaches dual-homed hosts, and offers the
fault injectors the paper's monitoring machinery exists to survive: cut
links, intermittent links, reflecting (unterminated) links, switch
crashes and restarts, and host power-offs.  It also records the
measurements the benchmark harness reports: per-epoch reconfiguration
durations (first tree-position packet to last forwarding-table load,
section 6.6.5) and convergence state.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Literal, Optional, Sequence, Set, Tuple

from repro.constants import SEC
from repro.core.autopilot import Autopilot, AutopilotParams
from repro.core.topo import TopologyMap
from repro.host.controller import HostController
from repro.host.driver import AutonetDriver
from repro.net.link import Link, LinkState, connect
from repro.net.switch import Switch
from repro.obs import artifact
from repro.obs.flight import FlightRecorder
from repro.obs.control import ControlAccounting
from repro.obs.inband import InbandTelemetry
from repro.obs.perfetto import trace_event_document
from repro.obs.profiler import EventLoopProfiler
from repro.obs.spans import ReconfigTracer
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import MergedLog
from repro.topology.generators import TopologySpec
from repro.topology.graph import adjacency, components
from repro.traffic.workload import TrafficConfig
from repro.types import Uid

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.traffic.engine import TrafficEngine


#: run_until_converged: convergence must hold this long before it counts
#: (section 6.2's skeptic philosophy, applied to the harness itself), and
#: is polled this often
SETTLE_NS = 500_000_000
STEP_NS = 50_000_000


@dataclass
class EpochRecord:
    """Measurement of one reconfiguration epoch."""

    epoch: int
    started_at: int = -1
    #: switch uid -> time its table was loaded
    configured: Dict[Uid, int] = field(default_factory=dict)

    def duration(self, population: int) -> Optional[int]:
        """Start-to-last-table-load, or None if not all switches finished."""
        if self.started_at < 0 or len(self.configured) < population:
            return None
        return max(self.configured.values()) - self.started_at


class Faults(Counter):
    """Faults injected, by kind (``Network.faults``).  The first network
    on a simulator also hangs it there as ``Simulator.metrics``, whose
    one reader is the frozen e2e harness's
    ``sim.metrics.total("faults_injected")``; ROADMAP item 1(d) deletes
    that read, this class and the slot."""

    def total(self, name: str) -> int:
        return sum(self.values())


class Network:
    """A complete simulated Autonet installation."""

    def __init__(
        self,
        spec: TopologySpec,
        params_factory: Optional[Callable[[int], AutopilotParams]] = None,
        seed: int = 0,
        direction_tagged_links: bool = False,
        sim: Optional[Simulator] = None,
        name: str = "",
        telemetry: bool = True,
        flight: bool = False,
        profile: bool = False,
        timeseries: bool = False,
        inband: bool = False,
        control: bool = False,
        traffic: "None | Literal[True] | TrafficConfig" = None,
    ) -> None:
        self.spec = spec
        #: pass a shared simulator to co-simulate several Autonets (for
        #: Autonet-to-Autonet bridging, section 6.8.2)
        self.sim = sim if sim is not None else Simulator()
        self.name = name
        self.rng = RngRegistry(seed)
        self.params_factory = params_factory
        #: repro.obs wiring: a per-epoch reconfiguration tracer.
        #: telemetry=False leaves it and every obs hook unset -- the hot
        #: paths then pay only their plain integer statistics.
        self.telemetry_enabled = telemetry
        self.tracer = ReconfigTracer() if telemetry else None
        #: faults injected, by kind: every fault method counts here
        self.faults = Faults()
        if self.sim.metrics is None:
            self.sim.metrics = self.faults
        #: opt-in flight recorder and event-loop profiler (repro.obs).
        #: Attached before the switches are built so boot-time events are
        #: captured; both default off, leaving sim.recorder/sim.profiler
        #: None (the null fast path).
        self.flight = FlightRecorder() if flight else None
        if flight:
            self.sim.recorder = self.flight
        self.profiler = EventLoopProfiler() if profile else None
        if profile:
            self.sim.profiler = self.profiler
        #: opt-in in-band path telemetry (repro.obs.inband).  Off (the
        #: default) leaves sim.inband None: the stamp sites pay one load +
        #: None test and packets carry no hop stack.  The layer windows
        #: its SLO stats against the tracer.
        self.inband: Optional[InbandTelemetry] = None
        if inband:
            self.inband = InbandTelemetry(self.sim, tracer=self.tracer)
            self.sim.inband = self.inband
        #: opt-in control-plane cost accounting (repro.obs.control).
        #: Off (the default) leaves sim.control None: the send/retx/SRP
        #: hooks pay one load + None test and nothing is counted.
        self.control: Optional[ControlAccounting] = (
            ControlAccounting() if control else None
        )
        if self.control is not None:
            self.sim.control = self.control

        self.switches: List[Switch] = []
        self.autopilots: List[Autopilot] = []
        self.links: Dict[Tuple[int, int], Link] = {}
        self.hosts: Dict[str, HostController] = {}
        self.drivers: Dict[str, AutonetDriver] = {}
        self._host_links: Dict[Tuple[str, int], Link] = {}
        #: host name -> switch indices it attaches to (blackout accounting)
        self._host_attachments: Dict[str, List[int]] = {}
        self.merged_log = MergedLog()
        self.epochs: Dict[int, EpochRecord] = {}

        prefix = f"{self.name}." if self.name else ""
        for i, uid in enumerate(spec.uids):
            switch = Switch(self.sim, name=f"{prefix}sw{i}", uid=uid)
            if direction_tagged_links:
                # the section 7 proposal: discard reflected packets in the
                # link unit via direction-tagged start commands
                for unit in switch.ports.values():
                    unit.discard_misdirected = True
            self.switches.append(switch)
            self._boot_autopilot(i)

        for a, pa, b, pb in spec.cables:
            link = connect(
                self.sim,
                self.switches[a].ports[pa],
                self.switches[b].ports[pb],
                name=f"sw{a}.p{pa}--sw{b}.p{pb}",
            )
            self.links[(a, pa)] = link
            self.links[(b, pb)] = link
        for autopilot in self.autopilots:  # booted before their cables
            autopilot.monitoring.recable()

        #: opt-in longitudinal sampler (repro.obs.timeseries).  Off (the
        #: default) leaves self.sampler None: no sample events exist and
        #: runs are byte-identical.  Wired after the cables so
        #: connected-port collectors see them.
        self.sampler: Optional[TimeSeriesSampler] = None
        if timeseries:
            self.sampler = TimeSeriesSampler(self.sim)
            self._install_timeseries()
            self.sampler.start()

        #: opt-in traffic engine (repro.traffic): None is off, True the
        #: default workload, a TrafficConfig that workload.  The engine is
        #: observational -- nothing in the data path knows it exists -- so
        #: runs with it off or on dispatch the same network events.  Wired
        #: last so it can register its sampler collectors.
        self.traffic: "Optional[TrafficEngine]" = None
        if traffic is not None:
            from repro.traffic.engine import TrafficEngine

            config = TrafficConfig() if traffic is True else traffic
            if not isinstance(config, TrafficConfig):
                raise TypeError(f"traffic: expected None, True or a TrafficConfig, got {traffic!r}")
            self.traffic = TrafficEngine(self, config)

    # -- measurement hooks ----------------------------------------------------------------

    def _configured(self, uid: Uid, epoch: int, topology: TopologyMap) -> None:
        """Switch ``uid`` loaded its table for ``epoch``."""
        record = self.epochs.setdefault(epoch, EpochRecord(epoch))
        record.configured[uid] = self.sim.now
        starts = [
            ap.engine.epoch_started_at
            for ap in self.autopilots
            if ap.engine.epoch == epoch
        ]
        if starts:
            earliest = min(starts)
            if record.started_at < 0 or earliest < record.started_at:
                record.started_at = earliest

    def _boot_autopilot(self, index: int, software_version: Optional[int] = None) -> None:
        """(Re)boot switch ``index``'s control processor: a fresh
        Autopilot with a newly drawn clock skew, wired to the epoch
        records, the code-download path, the merged log and the obs
        layer."""
        switch = self.switches[index]
        offset = self.rng.stream("clock-offsets").randrange(0, 50_000_000)  # up to 50 ms skew
        params = self.params_factory(index) if self.params_factory is not None else None
        autopilot = Autopilot(switch, params=params, clock_offset=offset)
        if software_version is not None:  # booting a downloaded release (section 5.4)
            autopilot.software_version = software_version
        autopilot.on_configured_hook = partial(self._configured, switch.uid)
        autopilot.on_code_download = partial(self._reboot_into, index)
        # first boot appends, a reboot replaces
        self.autopilots[index : index + 1] = [autopilot]
        self.merged_log.attach(autopilot.trace)
        self._install_telemetry(index)

    # -- telemetry (repro.obs) ---------------------------------------------------------------

    def _install_telemetry(self, index: int) -> None:
        """Wire one switch (or its rebuilt Autopilot) into the obs layer."""
        if not self.telemetry_enabled:
            return
        autopilot = self.autopilots[index]
        autopilot.on_obs_event = self.tracer.switch_event

    # -- time series (repro.obs.timeseries) -----------------------------------------------------

    def _install_timeseries(self) -> None:
        """Register the sampler's pull-only collectors.

        The per-Autopilot collectors late-bind through
        ``self.autopilots[i]``, so a restarted switch's fresh Autopilot is
        picked up automatically -- no re-registration on restart.  A
        switch and its FIFOs are never replaced, so theirs bind directly.
        """
        from repro.core.portstate import PortState

        sampler = self.sampler
        assert sampler is not None
        for i, switch in enumerate(self.switches):
            name = switch.name
            sampler.add_collector("epoch", partial(self._sample_epoch, i), switch=name)
            sampler.add_collector(
                "blackout_in_progress", partial(self._sample_blackout, i), switch=name
            )
            sampler.add_collector(
                "packets_forwarded",
                partial(getattr, switch, "packets_forwarded"),
                kind="counter",
                switch=name,
            )
            for state in PortState:
                sampler.add_collector(
                    "ports_in_state",
                    partial(self._sample_ports_in_state, i, state),
                    switch=name,
                    state=state.value,
                )
            for p, unit in sorted(switch.ports.items()):
                if unit.connected:
                    self._sample_fifo(i, p)
        if self.tracer is not None:
            self.tracer.add_listener(sampler.mark)

    # the sampler floats what a collector returns; None is "switch down"

    def _sample_epoch(self, index: int) -> Optional[int]:
        ap = self.autopilots[index]
        return ap.engine.epoch if ap.alive else None

    def _sample_blackout(self, index: int) -> Optional[bool]:
        ap = self.autopilots[index]
        return ap.engine.in_blackout if ap.alive else None

    def _sample_ports_in_state(self, index: int, state) -> Optional[int]:
        ap = self.autopilots[index]
        if not ap.alive:
            return None
        ports = self.switches[index].ports
        return sum(
            1
            for p, monitor in ap.monitoring.ports.items()
            if ports[p].connected and monitor.state is state
        )

    def _sample_fifo(self, sw: int, port: int) -> None:
        """Register the occupancy / high-water collector pair for one
        connected switch port."""
        sampler = self.sampler
        assert sampler is not None
        name = self.switches[sw].name
        fifo = self.switches[sw].ports[port].fifo
        sampler.add_collector(
            "fifo_occupancy_bytes", fifo.peek_level, switch=name, port=port
        )
        sampler.add_collector(
            "fifo_highwater_bytes",
            partial(getattr, fifo, "max_level"),
            kind="highwater",
            switch=name,
            port=port,
        )

    # -- observer artifacts (repro.obs.artifact) ---------------------------------------------------

    def _artifact(self, layer: str, observer, path: Optional[str] = None, name: str = "") -> Dict:
        """One observer's document of everything it recorded so far,
        validated and written to ``path`` when given."""
        if observer is None:
            raise RuntimeError(f"{layer} is off; build Network({layer}=...)")
        name = name or self.name or self.spec.name
        if observer is self.flight:
            # the §6.7 merged circular log rides along as its own track
            doc = trace_event_document(observer, merged_log=self.merged_log, name=name)
        else:
            doc = observer.document(name=name)
        if path is not None:
            artifact.write(path, doc)
        return doc

    def export_flight_trace(self, path: str) -> Dict:
        """Validate and write the flight trace; returns the document."""
        return self._artifact("flight", self.flight, path)

    def export_timeseries(self, path: str) -> Dict:
        """Validate and write the timeseries artifact; returns the doc."""
        return self._artifact("timeseries", self.sampler, path)

    def inband_doc(self) -> Dict:
        """The ``repro.obs.inband/2`` artifact."""
        return self._artifact("inband", self.inband)

    def export_inband(self, path: str) -> Dict:
        """Validate and write the inband artifact; returns the doc."""
        return self._artifact("inband", self.inband, path)

    def traffic_doc(self, name: str = "") -> Dict:
        """The ``repro.traffic/1`` artifact of the workload's SLO accounting."""
        return self._artifact("traffic", self.traffic, name=name)

    def export_observers(self, stem: str) -> List[str]:
        """Write the document of every observer that is on -- as
        ``<stem>.trace.json``, ``.timeseries.json``, ``.inband.json`` and
        ``.traffic.json`` (the workload's document is named after the
        stem's last component) -- and return the paths written."""
        written = []
        for suffix, layer, observer, name in (
            ("trace", "flight", self.flight, ""),
            ("timeseries", "timeseries", self.sampler, ""),
            ("inband", "inband", self.inband, ""),
            ("traffic", "traffic", self.traffic, os.path.basename(stem)),
        ):
            if observer is not None:
                written.append(f"{stem}.{suffix}.json")
                self._artifact(layer, observer, written[-1], name)
        return written

    def telemetry(self) -> Dict:
        """One structured snapshot of everything the installation knows
        about itself: fault and event counts, per-switch/per-port counters, and
        per-epoch reconfiguration spans with blackout intervals."""
        now = self.sim.now
        switches = {}
        for i, switch in enumerate(self.switches):
            ap = self.autopilots[i]
            ports = {}
            for p, unit in switch.ports.items():
                if not unit.connected:
                    continue
                dropped = {
                    cause: per_port[p]
                    for cause, per_port in switch.port_dropped.items()
                    if per_port.get(p)
                }
                if unit.overflow_drops:
                    dropped["overflow"] = unit.overflow_drops
                if unit.misdirected_discards:
                    dropped["misdirected"] = unit.misdirected_discards
                ports[p] = {
                    "forwarded": switch.port_forwarded[p],
                    "drained": switch.port_drained[p],
                    "dropped": dropped,
                    "fifo_highwater_bytes": unit.fifo.max_level,
                    "cut_through": unit.fifo.cut_through_packets,
                    "buffered": unit.fifo.buffered_packets,
                    "stop_ns": unit.cumulative_stop_ns(now),
                }
            skeptics = {}
            for p, monitor in ap.monitoring.ports.items():
                if (
                    monitor.status_skeptic.failures
                    or monitor.conn_skeptic.required
                    > monitor.conn_skeptic.base_required
                ):
                    skeptics[p] = {
                        "failures": monitor.status_skeptic.failures,
                        "hold_ns": monitor.status_skeptic.hold_ns,
                        "probes_required": monitor.conn_skeptic.required,
                    }
            switches[switch.name] = {
                "packets_forwarded": switch.packets_forwarded,
                "packets_discarded": switch.packets_discarded,
                "packets_to_cp": switch.packets_to_cp,
                "resets": switch.resets,
                "cp_packets_handled": ap.packets_handled,
                "cp_crc_errors": ap.crc_errors,
                "reconfig_msgs_gated": ap.engine.msgs_gated,
                "epochs_initiated": ap.engine.epochs_initiated,
                "epochs_joined": ap.engine.epochs_joined,
                "terminations": ap.engine.terminations,
                "configured": ap.configured and ap.engine.table_loaded,
                "ports": ports,
                "skeptic_holds": skeptics,
            }
        out = {
            "time_ns": now,
            "enabled": self.telemetry_enabled,
            "metrics": {
                "faults_injected": dict(self.faults),
                "events_dispatched": self.sim.events_dispatched,
                "pending_events": self.sim.pending_events(),
            },
            "switches": switches,
        }
        if self.tracer is not None:
            out["reconfigurations"] = self.tracer.span_summary()
            out["unclosed_spans"] = len(self.tracer.unclosed())
            out["host_blackouts"] = {
                epoch: self.host_blackouts(epoch)
                for epoch in sorted(span["key"] for span in self.tracer.windows())
            }
        if self.control is not None:
            out["control"] = self.control.summary()
        return out

    def host_blackouts(self, epoch: int) -> Dict[str, Optional[int]]:
        """Per-host blackout for one epoch: the interval during which
        *every* switch the host attaches to was closed (dual-homed hosts
        lose service only while both attachment switches are down).  An
        epoch without a window (``ReconfigTracer.windows``) has none."""
        if self.tracer is None or epoch not in {s["key"] for s in self.tracer.windows()}:
            return {}
        prefix = f"{self.name}." if self.name else ""
        by_switch = self.tracer.blackouts(epoch)
        out: Dict[str, Optional[int]] = {}
        for host, attachments in self._host_attachments.items():
            windows = []
            for index in attachments:
                entry = by_switch.get(f"{prefix}sw{index}")
                if entry is None:
                    windows.append(None)  # this switch never went dark
                else:
                    windows.append((entry["closed_ns"], entry["reopened_ns"]))
            if any(w is None for w in windows):
                out[host] = 0  # one attachment stayed up throughout
                continue
            if any(w[1] is None for w in windows):
                out[host] = None  # still dark: blackout not over yet
                continue
            start = max(w[0] for w in windows)
            end = min(w[1] for w in windows)
            out[host] = max(0, end - start)
        return out

    # -- hosts -----------------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        attachments: Sequence[Tuple[int, int]],
    ) -> HostController:
        """Attach a host to one or two (switch index, port) points."""
        if not 1 <= len(attachments) <= 2:
            raise ValueError("a host has one or two network ports")
        import zlib

        # unique even when several Networks share a simulator
        uid = Uid(
            0x800000000000
            + (zlib.crc32(f"{self.name}/{name}".encode()) << 8)
            + len(self.hosts)
        )
        controller = HostController(self.sim, name=name, uid=uid)
        for port_index, (sw, port) in enumerate(attachments):
            link = connect(
                self.sim,
                controller.ports[port_index],
                self.switches[sw].ports[port],
                name=f"{name}.{port_index}--sw{sw}.p{port}",
            )
            self._host_links[(name, port_index)] = link
            self.autopilots[sw].monitoring.recable()
            if self.sampler is not None:
                # the switch-side port just became connected; sample its
                # FIFO like every port cabled at build time
                self._sample_fifo(sw, port)
        self._host_attachments[name] = [sw for sw, _port in attachments]
        self.hosts[name] = controller
        self.drivers[name] = AutonetDriver(controller)
        return controller

    # -- execution ---------------------------------------------------------------------------

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def alive_autopilots(self) -> List[Autopilot]:
        return [ap for ap in self.autopilots if ap.alive]

    def converged(self) -> bool:
        """Every live switch configured, and mutual agreement within each
        partition: the switches named in a topology are exactly the live
        switches holding that same topology (section 6.6 configures
        physically separated partitions as disconnected networks)."""
        live = self.alive_autopilots()
        if not live:
            return False
        if not all(ap.configured and ap.engine.table_loaded for ap in live):
            return False
        holders: Dict[frozenset, Set[Uid]] = {}
        for ap in live:
            if ap.engine.topology is None:
                return False
            holders.setdefault(frozenset(ap.engine.topology.switches), set()).add(ap.uid)
        # every switch a view names is live and holds that same view
        return all(view <= uids for view, uids in holders.items())

    def run_until_converged(self, timeout_ns: int = 30 * SEC) -> bool:
        """Run until convergence has held for ``SETTLE_NS`` (polled every
        ``STEP_NS``), or timeout."""
        deadline = self.sim.now + timeout_ns
        stable_since: Optional[int] = None
        while self.sim.now < deadline:
            self.sim.run_for(STEP_NS)
            if self.converged():
                if stable_since is None:
                    stable_since = self.sim.now
                elif self.sim.now - stable_since >= SETTLE_NS:
                    return True
            else:
                stable_since = None
        return False

    # -- state queries ------------------------------------------------------------------------

    def operational_components(self) -> List[frozenset]:
        """The physically reachable components of the installation *now*:
        connected components over live switches and non-cut cables,
        returned as frozensets of switch indices (sorted by smallest
        member).

        This is the oracle the reconfiguration protocol must converge to
        (section 6.6 configures each physical partition as its own
        network), so chaos campaigns compare every switch's configured
        view against the component containing it.
        """
        alive = [i for i, ap in enumerate(self.autopilots) if ap.alive]
        # cut and reflecting cables carry nothing useful; noisy ones still do
        carrying = (LinkState.UP, LinkState.NOISY)
        cables = [
            (a, b)
            for a, pa, b, _pb in self.spec.cables
            if a in alive and b in alive and self.links[(a, pa)].state in carrying
        ]
        return components(adjacency(alive, cables))

    def current_epoch(self) -> int:
        return max(ap.epoch for ap in self.alive_autopilots())

    def topology(self) -> Optional[TopologyMap]:
        for ap in self.alive_autopilots():
            if ap.configured and ap.engine.topology is not None:
                return ap.engine.topology
        return None

    def epoch_duration(self) -> Optional[int]:
        """Reconfiguration time of the current epoch."""
        record = self.epochs.get(self.current_epoch())
        if record is None:
            return None
        return record.duration(len(self.alive_autopilots()))

    def short_address_of(self, switch_index: int, port: int = 0) -> Optional[int]:
        from repro.types import make_short_address

        ap = self.autopilots[switch_index]
        if not ap.configured:
            return None
        return make_short_address(ap.engine.my_number, port)

    # -- fault injection -------------------------------------------------------------------------
    #
    # Every injector funnels through _notify_fault, so the fault count,
    # the traffic engine and the on_fault hook see one uniform feed of
    # (kind, detail) regardless of who called it; the chaos schedules'
    # events (repro.chaos.events) call these methods.
    # Tolerant by design: faults address the *installation*, so a
    # restart of an already-running switch or a re-crash of a dead one
    # is a no-op, letting replayed or shrunk schedules stay valid even
    # when earlier (removed) events no longer produce the state a later
    # event assumed.

    #: observer hook: fn(kind, detail_dict)
    on_fault: Optional[Callable[[str, Dict], None]] = None

    def _notify_fault(self, kind: str, **detail) -> None:
        self.faults[kind] += 1
        if self.traffic is not None:
            self.traffic.note_fault(kind)
        if self.on_fault is not None:
            self.on_fault(kind, detail)

    def link_between(self, a: int, b: int) -> Link:
        """The first cabled link between switch indices ``a`` and ``b``."""
        for (sw, port), link in self.links.items():
            if sw != a:
                continue
            unit_a = self.switches[a].ports[port]
            other = link.other(unit_a)
            if getattr(other, "port_no", None) is not None and other is not unit_a:
                for pb, unit_b in self.switches[b].ports.items():
                    if other is unit_b:
                        return link
        raise ValueError(f"no link between sw{a} and sw{b}")

    def cut_link(self, a: int, b: int) -> Link:
        link = self.link_between(a, b)
        link.set_state(LinkState.CUT)
        self._notify_fault("cut-link", a=a, b=b)
        return link

    def restore_link(self, a: int, b: int) -> Link:
        link = self.link_between(a, b)
        link.set_state(LinkState.UP)
        self._notify_fault("restore-link", a=a, b=b)
        return link

    def make_link_noisy(self, a: int, b: int) -> Link:
        link = self.link_between(a, b)
        link.set_state(LinkState.NOISY)
        self._notify_fault("noisy-link", a=a, b=b)
        return link

    def flap_link(self, a: int, b: int, flaps: int = 3,
                  period_ns: int = 100_000_000) -> Link:
        """An intermittent cable: ``flaps`` cut/restore cycles, each half
        lasting ``period_ns``.  Rapid trains are what provoke the status
        skeptic into progressively longer hold-downs (section 6.5.5) --
        the stabilizing behavior the chaos campaigns exercise.
        """
        link = self.link_between(a, b)
        self._notify_fault("flap-link", a=a, b=b, flaps=flaps, period_ns=period_ns)
        for edge in range(2 * flaps):  # cut, restore, cut, ...
            state = LinkState.UP if edge % 2 else LinkState.CUT
            self.sim.after(edge * period_ns, link.set_state, state)
            if self.traffic is not None:  # each edge is news to the rate plan, not a fault
                self.sim.after(edge * period_ns, self.traffic.note_fault, "flap-link")
        return link

    def crash_switch(self, index: int) -> None:
        if not self.autopilots[index].alive:
            return  # already down
        self.autopilots[index].halt()
        self.switches[index].power_off()
        self._notify_fault("crash-switch", index=index)

    def restart_switch(self, index: int) -> None:
        """Power a crashed switch back on with a fresh Autopilot."""
        if self.autopilots[index].alive:
            return  # never double-boot a running switch
        self._notify_fault("restart-switch", index=index)
        self.switches[index].power_on()
        self._boot_autopilot(index)

    # -- Autopilot releases (section 5.4 / the section 7 anecdote) -----------------------

    def release_autopilot_version(self, version: int, propagate_delay_ns: int = 5 * SEC) -> None:
        """Download a new Autopilot release into switch 0, as from the
        programming workstation; it propagates itself from there.

        ``propagate_delay_ns`` is the pacing between a switch booting the
        new version and offering it to its neighbors -- the knob the
        paper turned after releases caused "30 or more reconfigurations
        in quick succession" (section 7).
        """
        self._propagate_delay_ns = propagate_delay_ns
        self._reboot_into(0, version)

    _propagate_delay_ns: int = 5 * SEC

    #: time a switch is down while booting a new image (ROM load etc.)
    _boot_delay_ns: int = 300_000_000

    def _reboot_into(self, index: int, version: int) -> None:
        """Accept the image, reboot the switch on it, then propagate."""
        old = self.autopilots[index]
        if not old.alive or old.software_version >= version:
            return
        old.halt()
        self.switches[index].power_off()
        self.sim.after(self._boot_delay_ns, self._boot_release, index, version)

    def _boot_release(self, index: int, version: int) -> None:
        """The new image is loaded: boot it and schedule its offers."""
        switch = self.switches[index]
        switch.power_on()
        self._boot_autopilot(index, software_version=version)
        autopilot = self.autopilots[index]
        # offer the image to neighbors one at a time: the pacing knob
        # of section 7 ("making compatible versions propagate more
        # slowly") bounds how much of the fabric reboots at once
        delay = self._propagate_delay_ns
        nth = 0
        for port, unit in sorted(switch.ports.items()):
            if not unit.connected:
                continue
            far = unit.link.other(unit)
            if getattr(far, "port_no", None) is None:
                continue  # host link: hosts don't run Autopilot
            nth += 1
            self.sim.after(delay * nth, self._offer_release, autopilot, port, version)

    def _offer_release(self, autopilot: Autopilot, port: int, version: int) -> None:
        from repro.core.messages import CodeDownloadMsg

        if not autopilot.alive:
            return
        autopilot.send_one_hop(
            port,
            CodeDownloadMsg(
                epoch=autopilot.epoch,
                sender_uid=autopilot.uid,
                msg_id=self.sim.new_msg_id(),
                version=version,
            ),
        )

    def rollout_complete(self, version: int) -> bool:
        return all(
            ap.software_version >= version for ap in self.alive_autopilots()
        )

    def power_off_host(self, name: str, reflect: bool = True) -> None:
        """Host powered down; coax links reflect at the dead controller
        (the section 7 broadcast-storm precondition)."""
        controller = self.hosts[name]
        if not controller.powered:
            return
        self._notify_fault("power-off-host", name=name, reflect=reflect)
        controller.power_off()
        for port_index in (0, 1):
            link = self._host_links.get((name, port_index))
            if link is None:
                continue
            if reflect:
                endpoint = controller.ports[port_index]
                state = (
                    LinkState.REFLECTING_B
                    if link.b is not endpoint
                    else LinkState.REFLECTING_A
                )
                link.set_state(state)
            else:
                link.set_state(LinkState.CUT)

    # -- debugging --------------------------------------------------------------------------------

    def describe(self) -> str:
        lines = [f"Network({self.spec.name}): {len(self.switches)} switches"]
        for i, ap in enumerate(self.autopilots):
            topo = ap.engine.topology
            lines.append(
                f"  sw{i} uid={ap.uid} epoch={ap.epoch} "
                f"configured={ap.configured} number={ap.engine.my_number} "
                f"pos=({ap.engine.position.root}, L{ap.engine.position.level}) "
                f"sees={len(topo.switches) if topo else 0}"
            )
        return "\n".join(lines)
