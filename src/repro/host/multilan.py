"""The LocalNet generic-LAN interface of section 5.6 (Figure 4).

LocalNet "presents a set of generic, UID-addressed LANs that carry
Ethernet datagrams": a `MultiLan` is built over its networks, `set_state`
enables or disables each, `send` transmits a datagram on a chosen
network, and a single receive hook delivers arrivals from any of them,
tagged with the network they came in on.  During the Autonet's shake-down
every Firefly stayed attached to both networks, and "the choice of which
network to use can be changed while the system is running... in the
middle of an RPC call or an IP connection without disrupting higher-level
software" (section 5.5) -- which the tests exercise literally.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Union

from repro.host.ethernet import ETHERNET_BROADCAST, EthernetStation
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.packet import Packet
from repro.types import Uid


class MultiLan:
    """One host's view of several generic LANs (Figure 4): each an Autonet
    (a :class:`LocalNet`) or an Ethernet station, given at construction
    as ``Bridge(a, b)`` takes its two ends; a network's id is its position.

    ``on_receive(net_id, src_uid, data_bytes, payload)`` fires for
    arrivals on any enabled network.
    """

    def __init__(self, *lans: Union[LocalNet, EthernetStation]) -> None:
        self._lans = lans
        self._enabled = [True] * len(lans)
        self.on_receive: Optional[Callable[[int, Uid, int, object], None]] = None
        for net_id, lan in enumerate(lans):
            if isinstance(lan, EthernetStation):
                lan.on_receive = partial(self._from_ethernet, net_id)
            else:
                lan.on_datagram = partial(self._from_autonet, net_id)

    # -- the LocalNet interface of Figure 4 ------------------------------------------

    def set_state(self, net_id: int, enabled: bool) -> None:
        """Enable or disable one network."""
        if not 0 <= net_id < len(self._lans):
            raise KeyError(f"no such network: {net_id}")
        self._enabled[net_id] = enabled

    def send(self, net_id: int, dest_uid: Uid, data_bytes: int,
             payload: object = None) -> bool:
        """Send an Ethernet datagram via a specific network."""
        if not (0 <= net_id < len(self._lans) and self._enabled[net_id]):
            return False
        lan = self._lans[net_id]
        if isinstance(lan, EthernetStation):
            dest = ETHERNET_BROADCAST if dest_uid == BROADCAST_UID else dest_uid
            return lan.send(dest, data_bytes, payload)
        return lan.send(dest_uid, data_bytes, payload=payload)

    # -- delivery -----------------------------------------------------------------------

    def _from_autonet(self, net_id: int, src_uid: Uid, ethertype: int, data_bytes: int,
                      packet: Packet) -> None:
        self._deliver(net_id, src_uid, data_bytes, packet.payload)

    def _from_ethernet(self, net_id: int, src_uid: Uid, dest_uid: Uid, data_bytes: int,
                       payload: object) -> None:
        self._deliver(net_id, src_uid, data_bytes, payload)

    def _deliver(self, net_id: int, src_uid: Uid, data_bytes: int, payload: object) -> None:
        if not self._enabled[net_id]:
            return  # a disabled network delivers nothing upward
        if self.on_receive is not None:
            self.on_receive(net_id, src_uid, data_bytes, payload)
