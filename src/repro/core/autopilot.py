"""Autopilot: the switch control program (section 5.4).

One instance runs on each switch's control processor.  Its structure
follows the paper: interrupt-level packet queues feeding process-level
tasks under a non-preemptive scheduler with a timer queue, a status
sampler and connectivity monitor classifying ports, skeptics stabilizing
them, and the distributed reconfiguration engine.  CPU costs are explicit
(the 68000 was slow; the difference between the "easy to understand"
first implementation's 5 s reconfigurations and the tuned 0.5 s version
was mostly processing cost), so :class:`CpuModel` has ``tuned`` and
``naive`` profiles that E1 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.constants import (
    ADDR_BROADCAST_SWITCHES,
    ADDR_ONE_HOP_BASE,
    CONTROL_PROCESSOR_PORT,
    MS,
    PORT_NUMBER_BITS,
    US,
)
from repro.core.messages import (
    CodeDownloadMsg,
    ConnectivityProbe,
    ConnectivityReply,
    ControlMessage,
    HostAddressRequest,
    HostAddressReply,
    SrpMessage,
)
from repro.core.monitor import MonitorParams, Monitoring, NeighborInfo
from repro.core.reconfig import ReconfigEngine, ReconfigParams
from repro.core.srp import SrpHandler
from repro.core.topo import TopologyMap
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.timers import Periodic, TaskScheduler
from repro.sim.trace import CAT_EPOCH, CAT_MESSAGE, TraceLog
from repro.types import Uid, make_short_address


@dataclass
class CpuModel:
    """Control-processor cost model (all times in nanoseconds)."""

    packet_handle_ns: int = 300 * US
    probe_handle_ns: int = 150 * US
    sampler_run_ns: int = 200 * US
    route_base_ns: int = 25 * MS
    route_per_switch_ns: int = 1_500 * US
    assign_base_ns: int = 5 * MS
    assign_per_switch_ns: int = 200 * US
    table_load_ns: int = 6 * MS

    def route_cost(self, n_switches: int) -> int:
        return self.route_base_ns + n_switches * self.route_per_switch_ns

    def assign_cost(self, n_switches: int) -> int:
        return self.assign_base_ns + n_switches * self.assign_per_switch_ns

    @classmethod
    def tuned(cls) -> "CpuModel":
        """The improved implementation (~0.17-0.5 s on the SRC LAN)."""
        return cls()

    @classmethod
    def naive(cls) -> "CpuModel":
        """The first, easy-to-debug implementation (~5 s reconfigs)."""
        return cls(
            packet_handle_ns=5 * MS,
            probe_handle_ns=2 * MS,
            sampler_run_ns=2 * MS,
            route_base_ns=800 * MS,
            route_per_switch_ns=30 * MS,
            assign_base_ns=100 * MS,
            assign_per_switch_ns=5 * MS,
            table_load_ns=150 * MS,
        )


@dataclass
class AutopilotParams:
    """All tunables of one Autopilot instance."""

    monitor: MonitorParams = field(default_factory=MonitorParams)
    reconfig: ReconfigParams = field(default_factory=ReconfigParams)
    cpu: CpuModel = field(default_factory=CpuModel.tuned)

    @classmethod
    def naive(cls) -> "AutopilotParams":
        """The first implementation: slow CPU paths *and* matching slow
        monitor cadences.  (With fast monitors over a slow CPU, the 400 ms
        route-computation block starves probe replies and the network
        flaps -- the responsiveness/stability tension of section 4.4.)"""
        params = cls(cpu=CpuModel.naive())
        params.reconfig.retx_period_ns = 500 * MS
        params.reconfig.config_timeout_ns = 30_000 * MS
        params.monitor.sample_period_ns = 50 * MS
        params.monitor.probe_period_ns = 4_000 * MS
        params.monitor.probe_miss_limit = 3
        params.monitor.blockage_sample_limit = 100
        params.monitor.progress_sample_limit = 100
        return params


class Autopilot:
    """The control program of one switch."""

    def __init__(
        self,
        switch: Switch,
        params: Optional[AutopilotParams] = None,
        clock_offset: int = 0,
    ) -> None:
        self.switch = switch
        self.sim: Simulator = switch.sim
        self.params = params or AutopilotParams()
        self.cpu = self.params.cpu
        self.alive = True
        #: running Autopilot release; newer CodeDownloadMsg images replace
        #: this instance (section 5.4); the network sets a downloaded one
        self.software_version = 1
        #: reboot hook, set by the Network facade: fn(new_version)
        self.on_code_download: Optional[Callable[[int], None]] = None

        self.scheduler = TaskScheduler(self.sim, owner=switch.name)
        self.trace = TraceLog(switch.name, clock_offset=clock_offset)
        self.monitoring = Monitoring(self, self.params.monitor)
        self.engine = ReconfigEngine(self, self.params.reconfig)
        self.srp = SrpHandler(self)
        #: message type -> its handler(in_port, message), for _process
        self._handlers: Dict[type, Callable[[int, Any], None]] = {
            ConnectivityProbe: self.monitoring.on_probe,
            ConnectivityReply: self.monitoring.on_probe_reply,
            HostAddressRequest: self._answer_host_address,
            SrpMessage: self.srp.handle,
            CodeDownloadMsg: self._code_download,
            **dict.fromkeys(self.engine.steps, self.engine.receive),
        }

        switch.on_cp_packet = self._rx_interrupt

        #: hooks for the Network facade / experiments
        self.on_configured_hook: Optional[Callable[[int, TopologyMap], None]] = None
        #: structured telemetry feed (repro.obs.spans.ReconfigTracer):
        #: fn(time_ns, switch_name, event, attrs).  None = tracing off,
        #: which costs one attribute test per control-plane transition.
        self.on_obs_event: Optional[Callable[[int, str, str, Dict], None]] = None

        self._periodics: List[Periodic] = [
            self.scheduler.every(
                self.params.monitor.sample_period_ns,
                self.monitoring.sample_all,
                cost=self.cpu.sampler_run_ns,
                name="status-sampler",
            ),
            self.scheduler.every(
                self.params.monitor.probe_period_ns,
                self.monitoring.probe_all,
                cost=self.cpu.probe_handle_ns,
                name="conn-prober",
            ),
        ]

        # A switch with no switch-to-switch links never sees a
        # s.switch.good transition, so nothing would ever build its
        # forwarding table.  If no epoch has begun shortly after boot,
        # run the initial configuration (a one-switch spanning tree).
        self.sim.after(2_000 * MS, self._boot_configuration_check)

        # statistics
        self.packets_handled = 0
        self.crc_errors = 0

    def _boot_configuration_check(self) -> None:
        if self.alive and self.engine.epoch == 0:
            self.trigger_reconfiguration("initial boot configuration")

    # -- identity ------------------------------------------------------------------------

    @property
    def uid(self) -> Uid:
        return self.switch.uid

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    @property
    def configured(self) -> bool:
        return self.engine.configured

    # -- lifecycle ------------------------------------------------------------------------

    def halt(self) -> None:
        """The control processor stops (switch crash or power-off)."""
        self.alive = False
        for periodic in self._periodics:
            periodic.cancel()
        self._periodics.clear()
        self.engine.halt()

    # -- transport ------------------------------------------------------------------------

    def send_one_hop(self, port: int, message: ControlMessage) -> None:
        """Send a control message to the neighbor on ``port``."""
        self.send_addressed(ADDR_ONE_HOP_BASE + port - 1, message, port)

    def send_addressed(
        self, dest_short: int, message: ControlMessage, port: Optional[int] = None
    ) -> None:
        """Send to a short address; ``port`` is the one hop it takes, if any.

        The send is flight-recorded with ``advance=False``: the causal
        story continues on the receiving switch (via the id stamped on the
        packet), not in whatever this handler does next.
        """
        if not self.alive:
            return
        sim = self.sim
        sim.packet_ids += 1
        packet = Packet(
            dest_short=dest_short,
            # the control processor's own short address: its port 0
            src_short=self.engine.my_number << PORT_NUMBER_BITS,
            ptype=message.ptype,
            data_bytes=message.encoded_bytes(),
            payload=message,
            packet_id=sim.packet_ids,
            created_at=sim.now,
        )
        rec = sim.recorder
        if rec is not None:
            packet.flight_eid = rec.record(
                sim.now,
                self.switch.name,
                CAT_MESSAGE,
                "msg-send",
                advance=False,
                msg=type(message).__name__,
                epoch=message.epoch,
                port=port,
                dest=packet.dest_short,
            )
        acct = self.sim.control
        if acct is not None:
            acct.record_send(
                self.engine.epoch,
                type(message).__name__,
                self.engine.phase,
                packet.wire_bytes,
            )
        self.switch.inject_from_cp(packet)

    # -- packet reception --------------------------------------------------------------------

    def _rx_interrupt(self, packet: Packet, in_port: int) -> None:
        """Interrupt level: enqueue for process-level handling."""
        if not self.alive:
            return
        self.scheduler.run_soon(self._process, packet, in_port, cost=self.cpu.packet_handle_ns)

    def _process(self, packet: Packet, in_port: int) -> None:
        if not self.alive:
            return
        self.packets_handled += 1
        if packet.corrupted:
            # CRCs on CP packets are checked in software (section 5.1)
            self.crc_errors += 1
            return
        message = packet.payload
        if message is None:
            return
        rec = self.sim.recorder
        if rec is not None:
            # parent crosses the wire: the send event stamped the packet.
            # advance=True makes everything this message causes chain here.
            rec.record(
                self.sim.now,
                self.switch.name,
                CAT_MESSAGE,
                "msg-recv",
                parent=packet.flight_eid,
                msg=type(message).__name__,
                epoch=getattr(message, "epoch", None),
                port=in_port,
                flow=packet.flight_eid,
            )

        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(in_port, message)

    # -- services --------------------------------------------------------------------------------

    def _code_download(self, in_port: int, message: CodeDownloadMsg) -> None:
        """A new release: accept it, boot it; the facade rebuilds this
        control program and schedules onward propagation (section 5.4)."""
        if message.version > self.software_version and self.on_code_download:
            self.log("code-download", f"version={message.version}")
            self.on_code_download(message.version)

    def _answer_host_address(self, in_port: int, message: HostAddressRequest) -> None:
        """Answer a host's short-address request (sections 5.4, 6.3)."""
        if not self.configured or in_port == CONTROL_PROCESSOR_PORT:
            return
        address = make_short_address(self.engine.my_number, in_port)
        self.send_addressed(
            address,
            HostAddressReply(
                epoch=self.epoch,
                sender_uid=self.uid,
                msg_id=self.sim.new_msg_id(),
                short_address=address,
            ),
        )

    # -- interfaces used by monitoring and the reconfig engine --------------------------------------

    def log(self, event: str, detail: str = "") -> None:
        self.trace.log(self.sim.now, event, detail)

    def obs_event(self, event: str, **attrs) -> None:
        """Emit one structured telemetry event (no-op when untraced).

        The same feed lands in the flight recorder as an epoch-category
        event, so phase marks (trigger, epoch-start, unconfigure,
        termination, table-loaded, config-timeout) appear on the causal
        timeline without a second set of hook sites.
        """
        if self.on_obs_event is not None:
            self.on_obs_event(self.sim.now, self.switch.name, event, attrs)
        rec = self.sim.recorder
        if rec is not None:
            rec.record(self.sim.now, self.switch.name, CAT_EPOCH, event, **attrs)

    def good_ports(self):
        return self.monitoring.good_ports()

    def is_good(self, port: int) -> bool:
        return self.monitoring.is_good(port)

    def host_ports(self):
        return self.monitoring.host_ports()

    def neighbor_of(self, port: int) -> Optional[NeighborInfo]:
        return self.monitoring.neighbor_of(port)

    def trigger_reconfiguration(self, reason: str, down_port: Optional[int] = None) -> None:
        if not self.alive:
            return
        self.log("reconfig-trigger", reason)
        self.obs_event("trigger", reason=reason, port=down_port)
        if down_port is not None and self.engine.try_local_link_down(down_port):
            return  # handled without a new epoch (section 7 extension)
        self.engine.initiate(reason)

    def broadcast_to_switches(self, message: ControlMessage) -> None:
        """Flood a control message to every switch CP (address FFFE)."""
        self.send_addressed(ADDR_BROADCAST_SWITCHES, message)

    def host_ports_changed(self) -> None:
        """A port entered or left s.host: refresh the local table.

        The prototype couples table loads with a switch reset, making host
        link isolation disruptive (section 7); we model the same.
        """
        topology = self.engine.topology
        if topology is None or not self.configured or self.uid not in topology.switches:
            return
        self.engine.load_table(topology)

    def clear_forwarding(self, reset: bool = True) -> None:
        self.switch.clear_table(reset_on_load=reset)

    def load_forwarding(self, entries: Dict, reset: bool = True) -> None:
        self.switch.load_table(entries, reset_on_load=reset)

    def run_task(self, fn: Callable[..., None], *args: Any, cost: int = 0) -> None:
        self.scheduler.run_soon(fn, *args, cost=cost)

    def on_configured(self, epoch: int, topology: TopologyMap) -> None:
        if self.on_configured_hook is not None:
            self.on_configured_hook(epoch, topology)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Autopilot {self.switch.name} epoch={self.epoch}>"
