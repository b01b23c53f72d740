"""The LocalNet generic-LAN interface of section 5.6 (Figure 4).

LocalNet "presents a set of generic, UID-addressed LANs that carry
Ethernet datagrams": `get_info` lists the attached networks, `set_state`
enables or disables each, `send` transmits a datagram on a chosen
network, and a single receive hook delivers arrivals from any of them,
tagged with the network they came in on.  During the Autonet's shake-down
every Firefly stayed attached to both networks, and "the choice of which
network to use can be changed while the system is running... in the
middle of an RPC call or an IP connection without disrupting higher-level
software" (section 5.5) -- which the tests exercise literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from repro.host.ethernet import ETHERNET_BROADCAST, EthernetStation
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.packet import Packet
from repro.types import Uid


@dataclass
class NetInfo:
    """One row of the GetInfo result."""

    net_id: int
    kind: str  # "autonet" | "ethernet"
    enabled: bool
    ready: bool


class MultiLan:
    """One host's view of several generic LANs (Figure 4).

    ``on_receive(net_id, src_uid, data_bytes, payload)`` fires for
    arrivals on any enabled network.
    """

    def __init__(self) -> None:
        self._autonets: Dict[int, LocalNet] = {}
        self._ethernets: Dict[int, EthernetStation] = {}
        self._enabled: Dict[int, bool] = {}
        self._next_id = 0
        self.on_receive: Optional[Callable[[int, Uid, int, object], None]] = None
        self.sent: Dict[int, int] = {}
        self.received: Dict[int, int] = {}

    # -- attachment ----------------------------------------------------------------

    def attach_autonet(self, localnet: LocalNet) -> int:
        net_id = self._next_id
        self._next_id += 1
        self._autonets[net_id] = localnet
        self._enabled[net_id] = True
        self.sent[net_id] = self.received[net_id] = 0
        localnet.on_datagram = partial(self._from_autonet, net_id)
        return net_id

    def attach_ethernet(self, station: EthernetStation) -> int:
        net_id = self._next_id
        self._next_id += 1
        self._ethernets[net_id] = station
        self._enabled[net_id] = True
        self.sent[net_id] = self.received[net_id] = 0
        station.on_receive = partial(self._from_ethernet, net_id)
        return net_id

    # -- the LocalNet interface of Figure 4 ------------------------------------------

    def get_info(self) -> Dict[int, NetInfo]:
        """Which generic nets correspond to which physical networks."""
        info = {}
        for net_id, localnet in self._autonets.items():
            info[net_id] = NetInfo(
                net_id, "autonet", self._enabled[net_id], localnet.driver.ready
            )
        for net_id in self._ethernets:
            info[net_id] = NetInfo(net_id, "ethernet", self._enabled[net_id], True)
        return info

    def set_state(self, net_id: int, enabled: bool) -> None:
        """Enable or disable one network."""
        if net_id not in self._enabled:
            raise KeyError(f"no such network: {net_id}")
        self._enabled[net_id] = enabled

    def send(self, net_id: int, dest_uid: Uid, data_bytes: int,
             payload: object = None) -> bool:
        """Send an Ethernet datagram via a specific network."""
        if not self._enabled.get(net_id, False):
            return False
        if net_id in self._autonets:
            ok = self._autonets[net_id].send(dest_uid, data_bytes, payload=payload)
        elif net_id in self._ethernets:
            dest = ETHERNET_BROADCAST if dest_uid == BROADCAST_UID else dest_uid
            ok = self._ethernets[net_id].send(dest, data_bytes, payload)
        else:
            raise KeyError(f"no such network: {net_id}")
        if ok:
            self.sent[net_id] += 1
        return ok

    def first(self, kind: str) -> Optional[int]:
        """The id of the first attached network of the given kind."""
        for net_id, info in self.get_info().items():
            if info.kind == kind:
                return net_id
        return None

    # -- delivery -----------------------------------------------------------------------

    def _from_autonet(self, net_id: int, src_uid: Uid, ethertype: int, data_bytes: int,
                      packet: Packet) -> None:
        self._deliver(net_id, src_uid, data_bytes, packet.payload)

    def _from_ethernet(self, net_id: int, src_uid: Uid, dest_uid: Uid, data_bytes: int,
                       payload: object) -> None:
        self._deliver(net_id, src_uid, data_bytes, payload)

    def _deliver(self, net_id: int, src_uid: Uid, data_bytes: int, payload: object) -> None:
        if not self._enabled.get(net_id, False):
            return  # a disabled network delivers nothing upward
        self.received[net_id] += 1
        if self.on_receive is not None:
            self.on_receive(net_id, src_uid, data_bytes, payload)
