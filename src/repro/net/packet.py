"""Autonet packet format (section 6.8) and control-plane frame types.

A client packet is a 32-byte Autonet header (destination and source short
addresses, Autonet type, encryption information) followed by an
encapsulated Ethernet packet (destination UID, source UID, Ethernet type,
data) and an 8-byte CRC.  Control packets (reconfiguration, connectivity
probes, SRP) use distinct Autonet type values and carry a message object
instead of client data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional, Tuple

from repro.constants import (
    AUTONET_HEADER_BYTES,
    CRC_BYTES,
    MAX_DATA_BYTES,
)
from repro.types import Uid, is_broadcast, truncate_address

#: Ethernet header carried inside an Autonet client packet (dst+src UID + type)
ETHERNET_HEADER_BYTES = 14


class PacketType(Enum):
    """Autonet type field values (type 1 is the client format, §6.8)."""

    CLIENT = 1
    RECONFIGURATION = 2
    SRP = 3
    CONNECTIVITY = 4
    DIAGNOSTIC = 5


@dataclass(slots=True)
class Packet:
    """One packet on the wire.

    ``payload`` is an opaque object for control packets (a message from
    :mod:`repro.core.messages`) or ``None`` for synthetic client data,
    whose length is given by ``data_bytes``.
    """

    dest_short: int
    src_short: int
    ptype: PacketType = PacketType.CLIENT
    dest_uid: Optional[Uid] = None
    src_uid: Optional[Uid] = None
    data_bytes: int = 0
    payload: Any = None
    encrypted: bool = False
    #: set when a FIFO overflow or injected noise damaged the packet
    corrupted: bool = False
    #: unique id for tracing, minted by ``Simulator.new_packet_id`` (0: a
    #: packet built outside any simulator)
    packet_id: int = 0
    #: creation time (filled by the injector)
    created_at: int = 0
    #: (switch name, in port, out ports) per hop, for tracing and tests
    trail: List[Tuple[str, int, Tuple[int, ...]]] = field(default_factory=list)
    #: flight-recorder id of the send event; crosses the wire with the
    #: packet so the receive can link back to it causally
    flight_eid: Optional[int] = None
    #: in-band telemetry hop stack: (t_ns, switch, in port, out ports,
    #: fifo depth) per hop; None (the default) when inband telemetry is
    #: off -- no list is allocated on the disabled path
    hops: Optional[List[Tuple[int, str, int, Tuple[int, ...], float]]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.data_bytes <= MAX_DATA_BYTES:
            raise ValueError(f"data length out of range: {self.data_bytes}")
        self.dest_short = truncate_address(self.dest_short)
        self.src_short = truncate_address(self.src_short)

    @property
    def wire_bytes(self) -> int:
        """Total bytes transmitted on a link for this packet."""
        if self.ptype is PacketType.CLIENT:
            return AUTONET_HEADER_BYTES + ETHERNET_HEADER_BYTES + self.data_bytes + CRC_BYTES
        # control packets: Autonet header + encoded message + CRC
        return AUTONET_HEADER_BYTES + self.data_bytes + CRC_BYTES

    @property
    def is_broadcast(self) -> bool:
        return is_broadcast(self.dest_short)

    def record_hop(self, switch_name: str, in_port: int, out_ports: Tuple[int, ...]) -> None:
        self.trail.append((switch_name, in_port, out_ports))

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.packet_id} {self.ptype.name} "
            f"{self.src_short:#05x}->{self.dest_short:#05x} {self.wire_bytes}B)"
        )
