"""The Autonet switch: link units, crossbar, router, control port.

Assembles the hardware of section 5.1: 12 external link units, a 13th
internal port to the control processor, the forwarding table, and the
first-come-first-considered scheduling engine.  The control processor
itself (Autopilot) lives in :mod:`repro.core.autopilot`; the switch
exposes ``inject_from_cp`` / ``on_cp_packet`` as its port-0 interface.

The prototype's reload-implies-reset coupling (section 7: "the control
processor [cannot] update the forwarding table without first resetting the
switch", destroying all packets in the switch) is modeled by
:meth:`Switch.load_table`, with ``reset_on_load=False`` available as the
paper's proposed hardware improvement for the ablation bench.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.constants import PORTS_PER_SWITCH
from repro.net.fifo import DiscardSink, DrainTarget, ReceiveFifo
from repro.net.forwarding import ForwardingTable, RowMap
from repro.net.linkunit import LinkUnit
from repro.net.packet import Packet
from repro.net.scheduler import Request, SchedulingEngine
from repro.sim.engine import Simulator
from repro.sim.trace import CAT_TABLE
from repro.types import Uid


class CpSink(DrainTarget):
    """Port 0's delivery side: packets drained here reach the control
    processor's receive buffers in video RAM (no flow control)."""

    def __init__(self, switch: "Switch") -> None:
        self.switch = switch

    def drain_allowed(self, broadcast: bool) -> bool:
        return True

    def notify_end(self, packet: Packet) -> None:
        self.switch._deliver_to_cp(packet)


class Crossbar:
    """Bookkeeping for the 13x13 crossbar: which input feeds each output."""

    def __init__(self, n_ports: int) -> None:
        self.n_ports = n_ports
        self._output_source: Dict[int, int] = {}

    def connect(self, in_port: int, out_ports: Tuple[int, ...]) -> None:
        for port in out_ports:
            if port in self._output_source:
                raise RuntimeError(
                    f"crossbar output {port} already connected to "
                    f"input {self._output_source[port]}"
                )
            self._output_source[port] = in_port

    def disconnect(self, out_port: int) -> None:
        self._output_source.pop(out_port, None)

    def clear(self) -> None:
        self._output_source.clear()

    def connections(self) -> Dict[int, int]:
        return dict(self._output_source)


class Switch:
    """One Autonet switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        uid: Uid,
        n_ports: int = PORTS_PER_SWITCH,
        fifo_bytes: Optional[int] = None,
        cut_through_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.uid = uid
        self.n_ports = n_ports
        self.powered = True

        kwargs = {}
        if fifo_bytes is not None:
            kwargs["fifo_bytes"] = fifo_bytes
        if cut_through_bytes is not None:
            kwargs["cut_through_bytes"] = cut_through_bytes
        self.ports: Dict[int, LinkUnit] = {
            p: LinkUnit(
                sim,
                name=f"{name}.p{p}",
                port_no=p,
                on_head_ready=self._head_ready,
                on_packet_drained=self._packet_drained,
                **kwargs,
            )
            for p in range(1, n_ports + 1)
        }
        for port, unit in self.ports.items():
            unit.tx.on_end = partial(self._tx_ended, port)
            unit.on_panic = partial(self._panicked, port)

        self.table = ForwardingTable(n_ports)
        self.crossbar = Crossbar(n_ports)
        self.engine = SchedulingEngine(sim, n_ports, grant=self._granted)
        self.discard_sink = DiscardSink()

        # port 0: control-processor injection FIFO and delivery sink
        self._cp_fifo = ReceiveFifo(
            sim,
            name=f"{name}.cp",
            capacity=1 << 30,
            on_head_ready=partial(self._head_ready, 0),
        )
        self._cp_sink = CpSink(self)
        #: Autopilot's receive hook; set by the control program
        self.on_cp_packet: Optional[Callable[[Packet], None]] = None

        # statistics
        self.packets_forwarded = 0
        self.packets_discarded = 0
        self.packets_to_cp = 0
        self.resets = 0
        #: input port -> packets granted output (0 = control processor)
        self.port_forwarded: Dict[int, int] = {}
        #: input port -> packets that fully left its FIFO
        self.port_drained: Dict[int, int] = {}
        #: drop cause -> {input port -> count}; causes: "table-discard"
        #: (the forwarding entry said discard), "isolated" (port taken out
        #: of service mid-packet), "reset" (table load destroyed it)
        self.port_dropped: Dict[str, Dict[int, int]] = {}

    def _drop(self, cause: str, in_port: int, count: int = 1) -> None:
        per_port = self.port_dropped.setdefault(cause, {})
        per_port[in_port] = per_port.get(in_port, 0) + count

    # -- port-0 (control processor) interface ----------------------------------------------

    def inject_from_cp(self, packet: Packet) -> None:
        """The control processor queues a packet for transmission."""
        if not self.powered:
            return
        self._cp_fifo.enqueue_buffered(packet)

    def _deliver_to_cp(self, packet: Packet) -> None:
        self.packets_to_cp += 1
        self.crossbar.disconnect(0)
        self.engine.port_freed(0)
        if self.on_cp_packet is not None and self.powered:
            self.on_cp_packet(packet)

    # -- routing pipeline --------------------------------------------------------------------

    def _fifo_for(self, in_port: int) -> ReceiveFifo:
        return self._cp_fifo if in_port == 0 else self.ports[in_port].fifo

    def _head_ready(self, in_port: int, packet: Packet) -> None:
        """Address bytes captured: look up the table, queue a request."""
        if not self.powered:
            return
        entry = self.table.lookup(in_port, packet.dest_short)
        if entry.is_discard:
            self.packets_discarded += 1
            self._drop("table-discard", in_port)
            packet.record_hop(self.name, in_port, ())
            ib = self.sim.inband
            if ib is not None:
                ib.record_drop(packet, self.name, "table-discard")
            self._fifo_for(in_port).connect_drain([self.discard_sink], broadcast=False)
            return
        self.engine.add_request(Request(in_port, entry, packet))

    def _granted(self, request: Request, ports: Tuple[int, ...]) -> None:
        fifo = self._fifo_for(request.in_port)
        targets: List[DrainTarget] = []
        for port in ports:
            if port == 0:
                targets.append(self._cp_sink)
            else:
                unit = self.ports[port]
                targets.append(unit.tx)
                unit.set_drain_source(fifo)
        self.crossbar.connect(request.in_port, ports)
        request.packet.record_hop(self.name, request.in_port, ports)
        ib = self.sim.inband
        if ib is not None:
            ib.record_hop(
                request.packet, self.name, request.in_port, ports,
                fifo.peek_level(),
            )
        self.packets_forwarded += 1
        self.port_forwarded[request.in_port] = (
            self.port_forwarded.get(request.in_port, 0) + 1
        )
        fifo.connect_drain(targets, broadcast=request.entry.broadcast)

    def _packet_drained(self, in_port: int, packet: Packet) -> None:
        """The head packet has fully left ``in_port``'s FIFO."""
        self.port_drained[in_port] = self.port_drained.get(in_port, 0) + 1

    def _panicked(self, port: int) -> None:
        """A panic directive arrived on ``port``: reset its link unit --
        clear the FIFO and any held grants -- then reinitialize link
        control (re-announce flow control)."""
        self.isolate_port(port)
        unit = self.ports[port]
        if unit.fc_sender is not None:
            unit.fc_sender.reannounce()

    def _tx_ended(self, port: int, packet: Packet) -> None:
        """``port``'s transmitter finished (or aborted) a packet."""
        self.ports[port].set_drain_source(None)
        self.crossbar.disconnect(port)
        self.engine.port_freed(port)

    # -- table loading / reset ------------------------------------------------------------------

    def isolate_port(self, in_port: int) -> None:
        """Take one port out of service (it was classified s.dead).

        Aborts any drain in progress from its FIFO -- releasing the
        crossbar connections and output ports it held -- drops its pending
        scheduling request, and clears its FIFO.  Without this, a dead
        port could wedge the outputs a granted broadcast had captured.
        """
        unit = self.ports[in_port]
        if unit.fifo.queue:
            self._drop("isolated", in_port, len(unit.fifo.queue))
        head = unit.fifo.head
        if head is not None and head.targets:
            packet = head.packet
            packet.corrupted = True
            for out_port, src in list(self.crossbar.connections().items()):
                if src != in_port:
                    continue
                if out_port == 0:
                    self.crossbar.disconnect(0)
                    self.engine.port_freed(0)
                    continue
                tx = self.ports[out_port].tx
                if tx.current is packet:
                    tx.abort()  # on_end hook frees the port
                else:
                    self.ports[out_port].set_drain_source(None)
                    self.crossbar.disconnect(out_port)
                    self.engine.port_freed(out_port)
        self.engine.remove_requests_from(in_port)
        unit.reset()

    def reset(self) -> None:
        """Destroy all packets in the switch (FIFO clears, abort drains)."""
        self.resets += 1
        for port, unit in self.ports.items():
            if unit.fifo.queue:
                self._drop("reset", port, len(unit.fifo.queue))
            unit.tx.abort()
            unit.set_drain_source(None)
            unit.reset()
        self._cp_fifo.queue.clear()
        self._cp_fifo.drain_rate = 0.0
        self._cp_fifo.recompute()
        self.crossbar.clear()
        self.engine.clear()

    def clear_table(self, reset_on_load: bool = True) -> None:
        """Step 1 of reconfiguration: constant (one-hop) entries only."""
        if reset_on_load:
            self.reset()
        self.table.clear_to_constant()
        rec = self.sim.recorder
        if rec is not None:
            rec.record(
                self.sim.now, self.name, CAT_TABLE, "table-clear", reset=reset_on_load
            )

    def load_table(self, rows: RowMap, reset_on_load: bool = True) -> None:
        """Load a computed configuration (address -> row).

        The prototype hardware couples loading with a switch reset that
        destroys all packets in the switch (section 7); pass
        ``reset_on_load=False`` to model the proposed improvement.
        """
        if reset_on_load:
            self.reset()
        self.table.load(rows)
        rec = self.sim.recorder
        if rec is not None:
            rec.record(
                self.sim.now,
                self.name,
                CAT_TABLE,
                "table-load",
                entries=len(rows) * (self.n_ports + 1),  # cells, as the memory counts
                reset=reset_on_load,
            )

    # -- power -------------------------------------------------------------------------------------

    def power_off(self) -> None:
        """Crash the switch: stop forwarding, go silent on all links."""
        self.powered = False
        self.reset()
        for unit in self.ports.values():
            unit.set_enabled(False)

    def power_on(self) -> None:
        """Boot: ports come back dead (Autopilot re-evaluates them)."""
        self.powered = True
        self.table.clear_to_constant()
        for unit in self.ports.values():
            unit.set_enabled(True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} uid={self.uid}>"
