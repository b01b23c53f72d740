"""Full-duplex point-to-point links and per-port transmitters.

A link joins two endpoints (switch link units or host controller ports).
Each direction carries packet bytes plus the reverse-channel flow control
of section 6.2.  Propagation delay follows the paper's W = 64.1 L bytes in
flight per km; we quantize it to whole 80 ns slots so byte counts stay
exact.

Links model the physical failure modes the paper's monitoring machinery
has to recognize (sections 6.5.2, 7):

* ``UP`` -- normal operation.
* ``CUT`` -- nothing is delivered; both receivers see silence, which the
  TAXI hardware reports as continuous code violations (BadCode).
* ``REFLECTING_A`` / ``REFLECTING_B`` -- the cable is unterminated at the
  named side's far end, so that side's transmissions reflect back into its
  own receiver (the §7 broadcast-storm failure mode).
* ``NOISY`` -- delivered, but the receiver accumulates BadCode and packets
  are probabilistically corrupted (intermittent links for the skeptics).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Tuple

from repro.constants import BYTE_TIME_NS, BYTES_IN_FLIGHT_PER_KM
from repro.net.fifo import DrainTarget
from repro.net.flowcontrol import Directive, FlowControlReceiver
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def propagation_ns(length_km: float) -> int:
    """One-way propagation delay, quantized to whole byte slots."""
    slots = max(1, round(BYTES_IN_FLIGHT_PER_KM * length_km))
    return int(slots) * BYTE_TIME_NS


class LinkState(Enum):
    """Physical condition of a cable (see module docstring)."""

    UP = "up"
    CUT = "cut"
    REFLECTING_A = "reflecting-a"  # side A hears its own transmissions
    REFLECTING_B = "reflecting-b"
    NOISY = "noisy"


class Endpoint:
    """One side of a link: the receive path plus identity information.

    Implemented by switch link units and host controller ports.
    """

    #: filled in by Link.attach
    link: Optional["Link"] = None
    #: whether a packet that arrives whole still needs its end marker: a
    #: host delivers on it, a switch FIFO closes a whole tail by itself
    needs_end_marker = True

    # receive-path entry points (called by the far transmitter via the link)
    def rx_begin_packet(self, packet: Packet, rate: float) -> None:
        raise NotImplementedError

    def rx_set_rate(self, rate: float) -> None:
        """The far transmitter stalled or resumed inside a packet."""
        raise NotImplementedError

    def rx_end_packet(self, packet: Packet) -> None:
        raise NotImplementedError

    def rx_flow_control(self, directive: Directive) -> None:
        raise NotImplementedError

    def describe_transmission(self) -> str:
        """What this endpoint currently puts on the wire, for fault
        fingerprinting: 'normal', 'sync-only' (alternate host port), or
        'silence' (unpowered)."""
        return "normal"

    def on_link_state_change(self) -> None:
        """Notification that the link's physical state changed."""

    def on_heard_change(self) -> None:
        """What this endpoint hears (:meth:`Link.received_condition`) may
        have changed: re-derive anything cached from it."""

    def transmission_changed(self) -> None:
        """Call when :meth:`describe_transmission`'s answer changes (power,
        active port): the far end hears something else from now on."""
        if self.link is not None:
            self.link.other(self).on_heard_change()


class Link:
    """A full-duplex link between endpoints ``a`` and ``b``."""

    def __init__(
        self,
        sim: Simulator,
        a: Endpoint,
        b: Endpoint,
        length_km: float = 0.1,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.a = a
        self.b = b
        self.delay_ns = propagation_ns(length_km)
        self.name = name or f"link({length_km}km)"
        self.state = LinkState.UP
        #: state changes so far: a packet on the wire across one may have
        #: lost a marker, so its end marker carries news
        self.changes = 0
        a.link = self
        b.link = self
        a.on_heard_change()
        b.on_heard_change()

    # -- physical state -----------------------------------------------------------

    def set_state(self, state: LinkState) -> None:
        if state is self.state:
            return
        self.state = state
        self.changes += 1
        self.a.on_link_state_change()
        self.b.on_link_state_change()

    def other(self, endpoint: Endpoint) -> Endpoint:
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise ValueError("endpoint not on this link")

    def _reflecting_for(self, sender: Endpoint) -> bool:
        return (self.state is LinkState.REFLECTING_A and sender is self.a) or (
            self.state is LinkState.REFLECTING_B and sender is self.b
        )

    def _route(self, sender: Endpoint) -> Optional[Tuple[Endpoint, int]]:
        """Return (receiver, delay) for a transmission, or None if lost."""
        state = self.state
        if state is LinkState.UP or state is LinkState.NOISY:
            return self.other(sender), self.delay_ns
        if self._reflecting_for(sender):
            return sender, 2 * self.delay_ns
        # cut, or the reflecting side's *far* endpoint is unpowered:
        # transmissions toward it vanish
        return None

    # -- transmission -------------------------------------------------------------

    # once per traversal each: _route inline, without its call or tuple
    def send_begin(self, sender: Endpoint, packet: Packet, rate: float) -> None:
        state = self.state
        if state is LinkState.UP or state is LinkState.NOISY:
            receiver, delay = (self.b if sender is self.a else self.a), self.delay_ns
        elif self._reflecting_for(sender):
            receiver, delay = sender, 2 * self.delay_ns
        else:
            return
        self.sim.after(delay, receiver.rx_begin_packet, packet, rate)

    def send_rate(self, sender: Endpoint, rate: float) -> None:
        route = self._route(sender)
        if route is not None:
            self.sim.after(route[1], route[0].rx_set_rate, rate)

    def send_end(self, sender: Endpoint, packet: Packet, news: bool) -> None:
        state = self.state
        if state is LinkState.UP or state is LinkState.NOISY:
            receiver, delay = (self.b if sender is self.a else self.a), self.delay_ns
        elif self._reflecting_for(sender):
            receiver, delay = sender, 2 * self.delay_ns
        else:
            return
        if news or receiver.needs_end_marker:
            self.sim.after(delay, receiver.rx_end_packet, packet)

    def send_flow_control(self, sender: Endpoint, directive: Directive) -> None:
        """Route a directive emitted at a flow-control slot boundary.

        The FlowControlSender handles slot alignment; the link applies the
        propagation delay (twice for a reflection).
        """
        route = self._route(sender)
        if route is not None:
            self.sim.after(route[1], route[0].rx_flow_control, directive)

    # -- fault fingerprints ---------------------------------------------------------

    def received_condition(self, listener: Endpoint) -> str:
        """What ``listener`` currently hears: 'normal', 'silence',
        'sync-only', 'own-signal', or 'noise'."""
        if self.state is LinkState.CUT:
            return "silence"
        if self._reflecting_for(listener):
            return "own-signal"
        if self.state in (LinkState.REFLECTING_A, LinkState.REFLECTING_B):
            return "silence"
        if self.state is LinkState.NOISY:
            return "noise"
        return self.other(listener).describe_transmission()


def connect(sim: Simulator, a: Endpoint, b: Endpoint, length_km: float = 0.1, name: str = "") -> Link:
    """Cable two endpoints together and finish their wiring."""
    link = Link(sim, a, b, length_km=length_km, name=name)
    for endpoint in (a, b):
        attach = getattr(endpoint, "attach_link", None)
        if attach is not None:
            attach()
    return link


class Transmitter(DrainTarget):
    """The transmit half of a port: forwards a FIFO's drain onto the link.

    The transmitter does not buffer; it relays begin/rate/end markers to
    the far end with the link's propagation delay and gates the drain on
    the latched flow-control directive received from the far end.  The
    broadcast-deadlock fix of section 6.6.6 -- ignore ``stop`` for the
    remainder of a broadcast packet -- is the ``ignore_stop_in_broadcast``
    flag, left on by default and turned off by the E3 bench to reproduce
    the deadlock.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        fc_receiver: FlowControlReceiver,
        ignore_stop_in_broadcast: bool = True,
    ) -> None:
        self.endpoint = endpoint
        self.fc_receiver = fc_receiver
        self.ignore_stop_in_broadcast = ignore_stop_in_broadcast
        #: packet currently being transmitted (None when idle)
        self.current: Optional[Packet] = None
        self.sending_broadcast = False
        #: invoked when a packet finishes transmitting (the switch frees
        #: the output port here)
        self.on_end: Optional[Callable[[Packet], None]] = None
        self.packets_sent = 0
        #: the link's state changes when the current packet began
        self.begun_changes = 0

    # -- DrainTarget interface -------------------------------------------------------

    def drain_allowed(self, broadcast: bool) -> bool:
        if self.fc_receiver.transmission_allowed:
            return True
        if broadcast and self.sending_broadcast and self.ignore_stop_in_broadcast:
            return True
        return False

    def notify_begin(self, packet: Packet, broadcast: bool, rate: float) -> None:
        self.current = packet
        self.sending_broadcast = broadcast
        link = self.endpoint.link
        if link is not None:
            self.begun_changes = link.changes
            link.send_begin(self.endpoint, packet, rate)

    def notify_rate(self, rate: float) -> None:
        link = self.endpoint.link
        if link is not None:
            link.send_rate(self.endpoint, rate)

    def notify_end(self, packet: Packet, truncated: bool = False) -> None:
        self.current = None
        self.sending_broadcast = False
        self.packets_sent += 1
        link = self.endpoint.link
        if link is not None:
            # news: the packet was cut short, or may have lost a marker
            link.send_end(self.endpoint, packet,
                          truncated or link.changes != self.begun_changes)
        if self.on_end is not None:
            self.on_end(packet)

    def abort(self) -> None:
        """Truncate the packet in transmission, if any: it arrives
        corrupted downstream, closed by a forced end marker."""
        packet = self.current
        if packet is not None:
            packet.corrupted = True
            self.notify_end(packet, True)
