"""Control-plane message formats.

All reconfiguration traffic travels in one-hop switch-to-switch packets
(short addresses 0x001-0x00F), so it keeps flowing while routing is down.
Every message carries the sender's 64-bit epoch number (section 6.6.2).
``encoded_bytes`` approximates the on-wire size so that transmission time
scales the way the paper's does -- topology reports grow as the stable
subtree grows (section 6.6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.topo import TopologyMap
from repro.net.packet import PacketType
from repro.types import Uid


@dataclass
class ControlMessage:
    """Base class: epoch tag plus a unique id for acking, minted by
    ``Simulator.new_msg_id`` where the message is built."""

    epoch: int
    sender_uid: Uid
    msg_id: int = 0

    #: the type field of the packet that carries it (a class attribute)
    ptype = PacketType.RECONFIGURATION

    def encoded_bytes(self) -> int:
        return 24


@dataclass
class TreePositionMsg(ControlMessage):
    """Step 1: a switch reports its current tree position to a neighbor.

    ``parent_uid``/``parent_far_port`` describe the sender's chosen parent
    link (the far port is the *parent-side* port number, learned from
    connectivity replies), letting the receiver tell whether the sender
    claims it as parent.
    """

    root: Uid = Uid(0)
    level: int = 0
    pos_seq: int = 0
    parent_uid: Optional[Uid] = None
    parent_far_port: Optional[int] = None

    def encoded_bytes(self) -> int:
        return 40


@dataclass
class AckMsg(ControlMessage):
    """Acknowledges one control message.

    For tree-position packets the ack carries the "this is now my parent
    link" bit of section 6.6.1 plus the acknowledged position sequence
    number, so the sender can tell which of its positions was acked.
    """

    acked_msg_id: int = 0
    acked_pos_seq: Optional[int] = None
    accepts_as_parent: bool = False

    def encoded_bytes(self) -> int:
        return 24


@dataclass
class StableMsg(ControlMessage):
    """Step 2: "I am stable", expanded into a topology report of the
    sender's stable subtree (switch records, links, proposed numbers)."""

    subtree: Optional[TopologyMap] = None

    def encoded_bytes(self) -> int:
        return 24 + (self.subtree.encoded_bytes() if self.subtree else 0)


@dataclass
class ConfigMsg(ControlMessage):
    """Step 4: the complete topology, tree, and address assignment,
    distributed down the spanning tree by the root."""

    topology: Optional[TopologyMap] = None

    def encoded_bytes(self) -> int:
        return 24 + (self.topology.encoded_bytes() if self.topology else 0)


@dataclass
class LinkDownMsg(ControlMessage):
    """Local reconfiguration (section 7 future work): a non-tree link
    died; every switch removes it and recomputes its table against the
    unchanged spanning tree, with no epoch and no traffic blackout."""

    link: object = None  # a NetLink

    def encoded_bytes(self) -> int:
        return 36


@dataclass
class CodeDownloadMsg(ControlMessage):
    """A new Autopilot version propagating switch to switch (section 5.4).

    The receiving switch accepts the image, reboots into it, and then
    propagates it to its neighbors.  ``image_bytes`` defaults to the
    paper's 62,000-byte object program.
    """

    version: int = 1
    image_bytes: int = 62_000

    def encoded_bytes(self) -> int:
        return 24 + self.image_bytes


@dataclass
class ConnectivityProbe(ControlMessage):
    """Connectivity-monitor test packet (section 6.5.4)."""

    nonce: int = 0
    sender_port: int = 0

    ptype = PacketType.CONNECTIVITY

    def encoded_bytes(self) -> int:
        return 32


@dataclass
class ConnectivityReply(ControlMessage):
    """Reply: echoes the prober's UID, port, and nonce."""

    nonce: int = 0
    echo_uid: Uid = Uid(0)
    echo_port: int = 0
    sender_port: int = 0

    ptype = PacketType.CONNECTIVITY

    def encoded_bytes(self) -> int:
        return 40


@dataclass
class HostAddressRequest(ControlMessage):
    """A host asks the local switch for its short address (section 6.3)."""

    host_uid: Uid = Uid(0)

    def encoded_bytes(self) -> int:
        return 24


@dataclass
class HostAddressReply(ControlMessage):
    """The switch tells a host the short address of its attachment port."""

    short_address: int = 0

    ptype = PacketType.DIAGNOSTIC

    def encoded_bytes(self) -> int:
        return 24


@dataclass
class SrpMessage(ControlMessage):
    """Source-routed protocol packet (section 6.7).

    ``route`` is the remaining sequence of outbound port numbers;
    ``reply_route`` accumulates the return path.  ``command`` selects the
    debugging operation at the final switch.
    """

    route: Tuple[int, ...] = ()
    reply_route: Tuple[int, ...] = ()
    command: str = "ping"
    payload: object = None
    #: filled by the responding switch
    response: object = None
    is_reply: bool = False

    def encoded_bytes(self) -> int:
        return 32 + 2 * (len(self.route) + len(self.reply_route)) + 64
