"""Control-packet dispatch as the ``isinstance`` chain it replaced.

:meth:`repro.core.autopilot.Autopilot._process` looks a message's exact
type up in one table, and the five reconfiguration types go to
:meth:`repro.core.reconfig.ReconfigEngine.receive`, which holds the
good-port gate, the epoch join, the laggard nudge and the step table.
:func:`process` is the chain that did all of that inline in ``_process``,
kept as it was but for the places where an interface moved: the gate
counts into ``engine.msgs_gated``, ``on_link_down`` takes the arrival port
like every other step, and the arrival port is an argument (the switch
hands it to the control processor with the packet).

``tests/core/test_dispatch_oracle.py`` holds the table to this chain.
Nothing under ``src/`` may import this module.
"""

from repro.constants import CONTROL_PROCESSOR_PORT
from repro.core.autopilot import Autopilot
from repro.core.messages import (
    AckMsg,
    CodeDownloadMsg,
    ConfigMsg,
    ConnectivityProbe,
    ConnectivityReply,
    HostAddressRequest,
    LinkDownMsg,
    SrpMessage,
    StableMsg,
    TreePositionMsg,
)
from repro.sim.trace import CAT_MESSAGE


def process(self, packet, in_port):
    """``Autopilot._process`` with the dispatch chain inline."""
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

    if isinstance(message, ConnectivityProbe):
        self.monitoring.on_probe(in_port, message)
        return
    if isinstance(message, ConnectivityReply):
        self.monitoring.on_probe_reply(in_port, message)
        return
    if isinstance(message, HostAddressRequest):
        self._answer_host_address(in_port, message)
        return
    if isinstance(message, SrpMessage):
        self.srp.handle(in_port, message)
        return

    if isinstance(message, CodeDownloadMsg):
        if message.version > self.software_version and self.on_code_download:
            self.log("code-download", f"version={message.version}")
            self.on_code_download(message.version)
        return

    if isinstance(
        message, (TreePositionMsg, AckMsg, StableMsg, ConfigMsg, LinkDownMsg)
    ) and (
        in_port != CONTROL_PROCESSOR_PORT
        and not self.monitoring.is_good(in_port)
    ):
        self.engine.msgs_gated += 1
        return

    if isinstance(message, LinkDownMsg):
        if self.engine.maybe_join(message.epoch) != "old":
            self.engine.on_link_down(in_port, message)
        return

    if isinstance(message, (TreePositionMsg, AckMsg, StableMsg, ConfigMsg)):
        verdict = self.engine.maybe_join(message.epoch)
        if verdict == "old":
            if isinstance(message, (TreePositionMsg, StableMsg, ConfigMsg)):
                self.engine.nudge(in_port)  # drag the laggard forward
            return
        if isinstance(message, TreePositionMsg):
            self.engine.on_tree_position(in_port, message)
        elif isinstance(message, AckMsg):
            self.engine.on_ack(in_port, message)
        elif isinstance(message, StableMsg):
            self.engine.on_stable(in_port, message)
        elif isinstance(message, ConfigMsg):
            self.engine.on_config(in_port, message)


def install(monkeypatch):
    """Every Autopilot, built before or after, dispatches by the chain."""
    monkeypatch.setattr(Autopilot, "_process", process)
