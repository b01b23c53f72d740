"""Naive reference versions of the three per-port registers.

``src/`` holds the link-unit status word, the sampler's view of it and the
scheduling engine's free-port vector as bit vectors maintained where they
change.  These are the implementations it had before -- derive everything
at read time, scan every port every sample, rebuild the free set every
scan -- kept deliberately slow and obvious as the oracle the latched forms
are pinned to (``tests/naive_routing.py`` does the same for the topology
index).  Nothing under ``src/`` may import this module.
"""

from repro.net.flowcontrol import Directive
from repro.net.linkunit import BAD_CODE, BAD_SYNTAX, IDHY_SEEN, IS_HOST, START_SEEN, STOP_SEEN

#: the status-word bits that are (or can be) chronic
CHRONIC_BITS = IS_HOST | BAD_CODE | BAD_SYNTAX | IDHY_SEEN | START_SEEN | STOP_SEEN


def chronic_status(unit, idhy_since_last_read=False):
    """The chronic part of ``unit``'s status word, asked of the link, the
    far endpoint and the receive latch *now* (section 6.5.2)."""
    condition = unit.link.received_condition(unit) if unit.link else "silence"
    last = unit.fc_receiver.last
    on_the_wire = condition in ("normal", "own-signal")
    word = 0
    if last is Directive.HOST:
        word |= IS_HOST
    if condition in ("silence", "noise"):
        word |= BAD_CODE
    if condition == "sync-only":
        word |= BAD_SYNTAX
    if idhy_since_last_read or (condition == "normal" and last is Directive.IDHY):
        word |= IDHY_SEEN
    if on_the_wire and last in (Directive.START, Directive.HOST):
        word |= START_SEEN
    if on_the_wire and last is Directive.STOP:
        word |= STOP_SEEN
    return word


def sample_all_never_skipping(monitoring):
    """The status sampler that hands every read to ``_sample_port``: patch
    it over ``Monitoring.sample_all`` to get the run the skipping sampler
    must reproduce byte for byte."""
    for port in monitoring.ports:
        unit = monitoring.ap.switch.ports[port]
        if unit.connected:
            monitoring._sample_port(port, unit.sample_status())


class NaiveSchedulingEngine:
    """First-come, first-considered scheduling (section 6.4) over a dict of
    busy flags, a dict of reservations and a free *set* rebuilt per scan."""

    def __init__(self, sim, n_ports, grant, decision_ns):
        self.sim = sim
        self.n_ports = n_ports
        self.grant = grant
        self.decision_ns = decision_ns
        self.queue = []
        self.port_busy = {p: False for p in range(n_ports + 1)}
        self.captured = {}   # id(request) -> set of reserved ports
        self.reserved = {}   # port -> request
        self.busy_until = 0
        self.scan_event = None

    def add_request(self, request):
        self.queue.append(request)
        self.captured[id(request)] = set()
        self._kick()

    def port_freed(self, port):
        self.port_busy[port] = False
        self._kick()

    def mark_port_busy(self, port):
        self.port_busy[port] = True

    def remove_requests_from(self, in_port):
        removed = [r for r in self.queue if r.in_port == in_port]
        if not removed:
            return
        self.queue = [r for r in self.queue if r.in_port != in_port]
        for request in removed:
            for port in self.captured.pop(id(request)):
                if self.reserved.get(port) is request:
                    del self.reserved[port]
        self._kick()

    def _kick(self):
        if self.scan_event is not None or not self.queue:
            return
        self.scan_event = self.sim.at(max(self.sim.now, self.busy_until), self._scan)

    def _scan(self):
        self.scan_event = None
        free = {
            p for p in range(self.n_ports + 1)
            if not self.port_busy[p] and p not in self.reserved
        }
        for request in self.queue:
            want = set(request.entry.ports)
            if request.entry.broadcast:
                captured = self.captured[id(request)]
                newly = (want - captured) & free
                for port in newly:
                    captured.add(port)
                    self.reserved[port] = request
                free -= newly
                if captured == want:
                    self._grant(request, tuple(sorted(want)))
                    return
            else:
                matches = sorted(want & free)
                if matches:
                    self._grant(request, (matches[0],))
                    return

    def _grant(self, request, ports):
        self.queue.remove(request)
        for port in ports:
            self.reserved.pop(port, None)
            self.port_busy[port] = True
        self.busy_until = self.sim.now + self.decision_ns
        self.grant(request, ports)
        self._kick()
