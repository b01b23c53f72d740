"""The source-routed protocol (SRP) for debugging and monitoring (§6.7).

An SRP packet carries an explicit sequence of outbound port numbers.  At
each switch along the path the control processor receives the packet,
pops the next port, and forwards it one hop.  Because each step uses only
the constant part of the forwarding table, SRP works even while routing
is down -- including during reconfiguration, which is exactly when the
debugging tools are needed.

Supported commands at the final switch:

* ``ping``        -- echo.
* ``get-log``     -- return the circular reconfiguration event log.
* ``get-state``   -- return switch state variables (epoch, position,
  port states, forwarding-table generation).
* ``get-topology``-- return the switch's current topology knowledge.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.messages import SrpMessage


class SrpHandler:
    """SRP processing for one Autopilot instance."""

    def __init__(self, ap) -> None:
        self.ap = ap

    def handle(self, in_port: int, msg: SrpMessage) -> None:
        if msg.route:
            # more hops to go: pop the next outbound port and forward,
            # prepending our receive port to the accumulated return path
            # (port 0 means we originated the request: nothing to retrace)
            next_port, *rest = msg.route
            back = (in_port,) + tuple(msg.reply_route) if in_port != 0 else tuple(msg.reply_route)
            forwarded = replace(
                msg,
                route=tuple(rest),
                reply_route=back,
            )
            unit = self.ap.switch.ports.get(next_port)
            if unit is not None and unit.connected:
                acct = self.ap.sim.control
                if acct is not None:
                    acct.record_srp(msg.command, "hop")
                self.ap.send_one_hop(next_port, forwarded)
            return
        if msg.is_reply:
            # arrived back at the originator; deliver to the registered
            # callback (stands in for the real request-id dispatch)
            callback = msg.payload
            if callable(callback):
                callback(msg)
            return
        # we are the destination: serve the command and retrace the path.
        # the reply leaves on the port the request arrived on; the
        # accumulated reply_route steers each switch on the way back.
        acct = self.ap.sim.control
        if acct is not None:
            acct.record_srp(msg.command, "served")
        reply = replace(
            msg,
            route=tuple(msg.reply_route),
            reply_route=(),
            is_reply=True,
            response=self._serve(msg.command),
        )
        if in_port == 0:
            # originated at this very switch: deliver locally
            callback = msg.payload
            if callable(callback):
                callback(reply)
        else:
            self.ap.send_one_hop(in_port, reply)

    def _serve(self, command: str) -> Optional[object]:
        ap = self.ap
        if command == "ping":
            return "pong"
        if command == "get-log":
            return list(ap.trace.entries())
        if command == "get-state":
            return {
                "uid": ap.uid,
                "epoch": ap.epoch,
                "configured": ap.configured,
                "position": ap.engine.position,
                "number": ap.engine.my_number,
                "port_states": {
                    p: ap.monitoring.state_of(p).value for p in ap.switch.ports
                },
                "table_generation": ap.switch.table.generation,
            }
        if command == "get-topology":
            return ap.engine.topology
        if command == "get-neighbors":
            # identity of the switch on each good port, plus port states:
            # the raw material for recovering the physical topology
            return {
                "uid": ap.uid,
                "number": ap.engine.my_number,
                "position": ap.engine.position,
                "neighbors": {
                    p: (info.uid, info.port)
                    for p in ap.monitoring.good_ports()
                    if (info := ap.monitoring.neighbor_of(p)) is not None
                },
                "host_ports": tuple(ap.monitoring.host_ports()),
            }
        return None
