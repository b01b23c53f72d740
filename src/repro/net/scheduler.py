"""First-come, first-considered output-port scheduling (section 6.4).

The engine keeps a queue of forwarding requests (at most one per input
port, because only the packet at the head of each FIFO is considered).  A
vector of free output ports is matched against the queue in arrival order:

* an *alternative* request (broadcast = 0) captures any one free matching
  port, preferring the lowest number;
* a *simultaneous* request (broadcast = 1) accumulates matching free ports
  -- reserving them against younger requests -- and is granted only when
  the whole set is captured.

The free-port vector is one int (bit p set = port p is neither allocated
nor reserved), kept current where ports change hands, and each table entry
carries its port vector as ``entry.mask``: a scan is an AND per request.

Requests may be serviced out of order when the free ports don't suit older
requests, but a broadcast request's reservations guarantee it is
eventually scheduled: starvation freedom, which
``tests/net/test_scheduler.py`` checks directly.  One request is scheduled
every 480 ns, bounding the switch at ~2 M forwarding decisions per second.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.constants import PORTS_PER_SWITCH, ROUTER_DECISION_TIME_NS
from repro.net.forwarding import ForwardingEntry
from repro.net.packet import Packet
from repro.sim.engine import Event, Simulator, cancel


class Request:
    """A forwarding request from one input port's head packet."""

    __slots__ = ("in_port", "entry", "packet", "captured")

    def __init__(self, in_port: int, entry: ForwardingEntry, packet: Packet) -> None:
        self.in_port = in_port
        self.entry = entry
        self.packet = packet
        #: port vector already reserved for a simultaneous (broadcast) request
        self.captured = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bcast" if self.entry.broadcast else "alt"
        return f"<Request in={self.in_port} {kind} ports={self.entry.ports}>"


GrantCallback = Callable[[Request, Tuple[int, ...]], None]

#: the free-port vector with every port, the control processor's 0 too, free
ALL_FREE = (2 << PORTS_PER_SWITCH) - 1


class SchedulingEngine:
    """The Xilinx scheduling engine of Figure 7."""

    def __init__(self, sim: Simulator, grant: GrantCallback) -> None:
        self.sim = sim
        self.grant = grant
        #: oldest request first (the right-most queue slot in Figure 7)
        self.queue: List[Request] = []
        #: the free-port vector: allocated and reserved ports have a 0 bit
        self.free = ALL_FREE
        self._busy_until = 0
        self._scan_event: Optional[Event] = None
        self.grants = 0

    # -- external interface ------------------------------------------------------------

    def add_request(self, request: Request) -> None:
        self.queue.append(request)
        self._kick()

    def port_freed(self, port: int) -> None:
        self.free |= 1 << port
        if self.queue:
            self._kick()

    def clear(self) -> None:
        """Drop all pending requests and free every port (switch reset)."""
        self.queue.clear()
        self.free = ALL_FREE
        if self._scan_event is not None:
            cancel(self._scan_event)
            self._scan_event = None

    def remove_requests_from(self, in_port: int) -> None:
        """Drop pending requests from one input port (port isolation),
        releasing any output ports a broadcast request had reserved."""
        removed = [r for r in self.queue if r.in_port == in_port]
        if not removed:
            return
        self.queue = [r for r in self.queue if r.in_port != in_port]
        for request in removed:
            self.free |= request.captured
        self._kick()

    # -- the scan -----------------------------------------------------------------------

    def _kick(self) -> None:
        """Scan if a queued request meets a free port (one that meets none can
        grant and reserve nothing): now if the engine is free, else when it is."""
        if self._scan_event is not None:
            return
        free = self.free
        for request in self.queue:
            if request.entry.mask & free:
                if self._busy_until <= self.sim.now:
                    self._scan()
                else:
                    self._scan_event = self.sim.at(self._busy_until, self._scan)
                return

    def _scan(self) -> None:
        self._scan_event = None
        for request in self.queue:
            entry = request.entry
            match = entry.mask & self.free
            if entry.broadcast:
                # reserve what is free now against younger requests
                request.captured |= match
                self.free &= ~match
                if request.captured == entry.mask:
                    self._grant(request, entry.ports)
                    return
            elif match:
                lowest = match & -match
                self.free &= ~lowest
                self._grant(request, (lowest.bit_length() - 1,))
                return
        # nothing grantable now; wait for the next port_freed/add_request

    def _grant(self, request: Request, ports: Tuple[int, ...]) -> None:
        self.queue.remove(request)
        self._busy_until = self.sim.now + ROUTER_DECISION_TIME_NS
        self.grants += 1
        self.grant(request, ports)
        if self.queue:
            self._kick()
