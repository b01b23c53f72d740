"""Reproduction of "Automatic Reconfiguration in Autonet" (SOSP 1991).

A discrete-event Autonet: crossbar switches with cut-through forwarding
and start/stop flow control, Autopilot port-state monitoring with
skeptics, the distributed reconfiguration algorithm with termination
detection, up*/down* deadlock-free routing, dual-ported hosts with
LocalNet address learning, and the baselines the paper argues against.

Quick start::

    from repro import Network, torus

    net = Network(torus(3, 4))
    net.run_until_converged()
    net.cut_link(0, 1)            # Autopilot reconfigures around it
    net.run_until_converged()
    print(net.epoch_duration())   # the paper's headline metric (ns)
"""

from repro.core.autopilot import Autopilot, AutopilotParams, CpuModel
from repro.core.portstate import PortState
from repro.core.routing import build_forwarding_entries
from repro.core.topo import TopologyMap
from repro.host.controller import HostController
from repro.host.driver import AutonetDriver
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import (
    line,
    mesh,
    random_regular,
    ring,
    src_service_lan,
    torus,
    tree,
)
from repro.types import Uid, make_short_address

__version__ = "1.0.0"

__all__ = [
    "Autopilot",
    "AutopilotParams",
    "CpuModel",
    "PortState",
    "build_forwarding_entries",
    "TopologyMap",
    "HostController",
    "AutonetDriver",
    "LocalNet",
    "BROADCAST_UID",
    "Packet",
    "PacketType",
    "Switch",
    "Network",
    "Simulator",
    "line",
    "mesh",
    "random_regular",
    "ring",
    "src_service_lan",
    "torus",
    "tree",
    "Uid",
    "make_short_address",
    "__version__",
]
