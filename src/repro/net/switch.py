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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import DEFAULT_FIFO_BYTES, PORTS_PER_SWITCH
from repro.net.fifo import DiscardSink, DrainTarget, ReceiveFifo, TransmitQueue
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


class Switch:
    """One Autonet switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        uid: Uid,
        fifo_bytes: Optional[int] = None,
        cut_through_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.uid = uid
        self.powered = True

        fifo_bytes = DEFAULT_FIFO_BYTES if fifo_bytes is None else fifo_bytes
        self.ports: Dict[int, LinkUnit] = {
            p: LinkUnit(sim, f"{name}.p{p}", p, self._head_ready, self._packet_drained,
                        fifo_bytes=fifo_bytes, cut_through_bytes=cut_through_bytes)
            for p in range(1, PORTS_PER_SWITCH + 1)
        }
        for port, unit in self.ports.items():
            unit.tx.on_end = partial(self._tx_ended, port)
            unit.on_panic = partial(self._panicked, port)

        self.table = ForwardingTable()
        self.engine = SchedulingEngine(sim, grant=self._granted)
        self.discard_sink = DiscardSink()

        # port 0: the control processor's transmit queue and delivery sink
        self._cp_queue = TransmitQueue(sim, f"{name}.cp",
                                       on_head_ready=partial(self._head_ready, 0))
        #: per input port: where its packets wait
        self._fifos: List[ReceiveFifo] = [
            self._cp_queue, *(unit.fifo for unit in self.ports.values())]
        #: per output port: its drain target, alone in a list that a grant
        #: of that one output hands the FIFO (which never changes it)
        self._targets: List[Sequence[DrainTarget]] = [
            [CpSink(self)], *([unit.tx] for unit in self.ports.values())]
        #: the crossbar: per output port, the input port feeding it, or None
        self._feeding: List[Optional[int]] = [None] * (PORTS_PER_SWITCH + 1)
        #: Autopilot's receive hook (packet, the port it came in on); set
        #: by the control program
        self.on_cp_packet: Optional[Callable[[Packet, int], None]] = None

        # statistics
        self.packets_forwarded = 0
        self.packets_discarded = 0
        self.packets_to_cp = 0
        self.resets = 0
        #: per input port: packets granted output (0 = control processor)
        self.port_forwarded = [0] * (PORTS_PER_SWITCH + 1)
        #: per input port: packets that fully left its FIFO
        self.port_drained = [0] * (PORTS_PER_SWITCH + 1)
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
        self._cp_queue.enqueue(packet)

    def _deliver_to_cp(self, packet: Packet) -> None:
        self.packets_to_cp += 1
        in_port = self._feeding[0]
        self._feeding[0] = None
        self.engine.port_freed(0)
        if self.on_cp_packet is not None and self.powered:
            self.on_cp_packet(packet, in_port)

    # -- routing pipeline --------------------------------------------------------------------

    def _head_ready(self, in_port: int, packet: Packet) -> None:
        """Address bytes captured: look up the table, queue a request."""
        if not self.powered:
            return
        entry = self.table.lookup(in_port, packet.dest_short)
        if entry.is_discard:
            self.packets_discarded += 1
            self._drop("table-discard", in_port)
            ib = self.sim.inband
            if ib is not None:
                ib.record_drop(packet, self.name, "table-discard")
            self._fifos[in_port].connect_drain([self.discard_sink], broadcast=False)
            return
        self.engine.add_request(Request(in_port, entry, packet))

    def _granted(self, request: Request, ports: Tuple[int, ...]) -> None:
        in_port = request.in_port
        packet = request.packet
        fifo = self._fifos[in_port]
        feeding = self._feeding
        for port in ports:
            if feeding[port] is not None:
                raise RuntimeError(
                    f"crossbar output {port} already connected to input {feeding[port]}")
            feeding[port] = in_port
            if port:
                self.ports[port].drain_source = fifo
        ib = self.sim.inband
        if ib is not None:
            ib.record_hop(packet, self.name, in_port, ports, fifo.peek_level())
        self.packets_forwarded += 1
        self.port_forwarded[in_port] += 1
        targets = self._targets
        fifo.connect_drain(
            targets[ports[0]] if len(ports) == 1 else [targets[p][0] for p in ports],
            broadcast=request.entry.broadcast,
        )

    def _packet_drained(self, in_port: int, packet: Packet) -> None:
        """The head packet has fully left ``in_port``'s FIFO."""
        self.port_drained[in_port] += 1

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
        self.ports[port].drain_source = None
        self._feeding[port] = None
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
            for out_port, src in enumerate(self._feeding):
                if src != in_port:
                    continue
                if out_port == 0:
                    self._feeding[0] = None
                    self.engine.port_freed(0)
                    continue
                tx = self.ports[out_port].tx
                if tx.current is packet:
                    tx.abort()  # on_end hook frees the port
                else:
                    self.ports[out_port].drain_source = None
                    self._feeding[out_port] = None
                    self.engine.port_freed(out_port)
        self.engine.remove_requests_from(in_port)
        unit.reset()

    def reset(self) -> None:
        """Destroy all packets in the switch (FIFO clears, abort drains)."""
        self.resets += 1
        # first, so that no port the aborts free is granted mid-reset
        self.engine.clear()
        for port, unit in self.ports.items():
            if unit.fifo.queue:
                self._drop("reset", port, len(unit.fifo.queue))
            unit.tx.abort()
            unit.drain_source = None
            unit.reset()
        self._cp_queue.clear()
        self._feeding[:] = [None] * (PORTS_PER_SWITCH + 1)

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
                entries=len(rows) * (PORTS_PER_SWITCH + 1),  # cells, as the memory counts
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
