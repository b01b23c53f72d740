"""Alternate-link management: the Autonet driver (section 6.8.3).

In normal operation the driver exchanges a packet with the local switch
every few seconds, both confirming the host's short address and verifying
the link.  If the switch stops responding the driver probes vigorously,
and after three seconds without a response it switches to the alternate
link, forgets its short address, and contacts the new local switch.  If
neither link works it alternates between them every ten seconds.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.constants import (
    ADDR_LOCAL_SWITCH,
    HOST_FAILOVER_TIMEOUT_NS,
    HOST_PROBE_PERIOD_NS,
    HOST_SWITCHBACK_TIMEOUT_NS,
    MS,
)
from repro.core.messages import HostAddressReply, HostAddressRequest
from repro.host.controller import HostController
from repro.net.packet import Packet, PacketType

#: probe period while the switch is not answering
VIGOROUS_PROBE_PERIOD_NS = 250 * MS


class AutonetDriver:
    """Per-host link management and short-address tracking."""

    def __init__(self, controller: HostController) -> None:
        self.controller = controller
        self.sim = controller.sim

        self.short_address: Optional[int] = None
        self._last_response = self.sim.now
        #: fail over when this deadline passes without a switch response
        self._failover_deadline = self.sim.now + HOST_FAILOVER_TIMEOUT_NS
        #: delivery hook for client packets (LocalNet)
        self.on_packet: Optional[Callable[[Packet], None]] = None
        #: invoked with the new short address after (re)learning it
        self.on_address_change: Optional[Callable[[int], None]] = None

        controller.on_receive = self._receive
        self.failovers = 0
        self._probe()

    # -- probing ------------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.short_address is not None

    def _healthy(self) -> bool:
        return self.sim.now - self._last_response <= HOST_PROBE_PERIOD_NS + 500 * MS

    def _probe(self) -> None:
        if not self.controller.powered:
            self.sim.after(HOST_PROBE_PERIOD_NS, self._probe)
            return
        self._check_failover()
        self._send_probe()
        period = HOST_PROBE_PERIOD_NS if self._healthy() else VIGOROUS_PROBE_PERIOD_NS
        self.sim.after(period, self._probe)

    def _send_probe(self) -> None:
        request = HostAddressRequest(
            epoch=0,
            sender_uid=self.controller.uid,
            msg_id=self.sim.new_msg_id(),
            host_uid=self.controller.uid,
        )
        self.controller.send(
            Packet(
                dest_short=ADDR_LOCAL_SWITCH,
                src_short=self.short_address or 0,
                ptype=PacketType.DIAGNOSTIC,
                data_bytes=request.encoded_bytes(),
                payload=request,
                src_uid=self.controller.uid,
                packet_id=self.sim.new_packet_id(),
            )
        )

    def kick(self) -> None:
        """One immediate extra probe, outside the periodic loop.

        The boot-time probe is usually lost (the switches are not
        configured yet), and the 2 s probe period then dominates host
        readiness.  Host software that just started (e.g. the traffic
        workload launching after convergence) kicks the driver instead
        of waiting out the period.
        """
        if not self.ready and self.controller.powered:
            self._send_probe()

    def _check_failover(self) -> None:
        if self.sim.now >= self._failover_deadline:
            self._fail_over()

    def _fail_over(self) -> None:
        """Adopt the alternate link (3 s of silence), or keep alternating
        every 10 s while neither switch answers."""
        self.failovers += 1
        self.short_address = None  # forget it; re-learn from the new switch
        self.controller.select_port(1 - self.controller.active_index)
        self._failover_deadline = self.sim.now + HOST_SWITCHBACK_TIMEOUT_NS

    # -- reception -----------------------------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, HostAddressReply):
            self._last_response = self.sim.now
            self._failover_deadline = self.sim.now + HOST_FAILOVER_TIMEOUT_NS
            if payload.short_address != self.short_address:
                self.short_address = payload.short_address
                if self.on_address_change is not None:
                    self.on_address_change(payload.short_address)
            return
        if self.on_packet is not None:
            self.on_packet(packet)

    # -- transmission ---------------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Send a client packet, stamping our current short address."""
        if self.short_address is None:
            return False
        packet.src_short = self.short_address
        return self.controller.send(packet)
