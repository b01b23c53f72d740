"""Switch forwarding tables (section 6.3).

A table is indexed by the concatenation of the receiving port number and a
packet's destination short address.  Each entry holds a 13-bit port vector
and a broadcast flag:

* ``broadcast = 0``: the vector lists *alternative* ports -- the switch
  sends on the first free one, preferring the lowest number;
* ``broadcast = 1``: the vector lists ports that must all forward the
  packet *simultaneously*; an all-zero vector means discard.

The *constant part* of a table implements the reserved addresses: one-hop
switch-to-switch addresses 0x001-0x00F, the local-switch address 0x000,
and loopback 0xFFC.  It survives the table clear at the start of a
reconfiguration, which is why SRP debugging packets keep working while
routing is down (section 6.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.constants import (
    ADDR_LOCAL_SWITCH,
    ADDR_LOOPBACK,
    ADDR_ONE_HOP_BASE,
    ADDR_ONE_HOP_LIMIT,
    CONTROL_PROCESSOR_PORT,
    PORTS_PER_SWITCH,
)
from repro.types import truncate_address


@dataclass(frozen=True)
class ForwardingEntry:
    """One forwarding-table entry: a port vector plus the broadcast flag."""

    ports: Tuple[int, ...]
    broadcast: bool = False
    #: the 13-bit port vector itself: bit p set = port p listed
    mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ports != tuple(sorted(self.ports)):
            object.__setattr__(self, "ports", tuple(sorted(self.ports)))
        mask = 0
        for port in self.ports:
            if not 0 <= port <= PORTS_PER_SWITCH:
                raise ValueError(f"port out of range: {port}")
            mask |= 1 << port
        object.__setattr__(self, "mask", mask)

    @property
    def is_discard(self) -> bool:
        return self.broadcast and not self.ports


#: the explicit discard entry stored in tables
DISCARD_ENTRY = ForwardingEntry(ports=(), broadcast=True)


class ForwardingTable:
    """The forwarding memory of one switch."""

    def __init__(self, n_ports: int = PORTS_PER_SWITCH) -> None:
        self.n_ports = n_ports
        self._entries: Dict[Tuple[int, int], ForwardingEntry] = {}
        self._constant: Dict[Tuple[int, int], ForwardingEntry] = {}
        self._install_constant_part()
        #: incremented on every full load, for tests and tracing
        self.generation = 0

    def _install_constant_part(self) -> None:
        """One-hop, local-switch, and loopback entries (section 6.3)."""
        for out_port in range(1, self.n_ports + 1):
            one_hop = ADDR_ONE_HOP_BASE + out_port - 1
            if one_hop > ADDR_ONE_HOP_LIMIT:
                break
            # from the control processor: transmit on the numbered port
            self._constant[(CONTROL_PROCESSOR_PORT, one_hop)] = ForwardingEntry((out_port,))
            # from any external port: deliver to the control processor
            for in_port in range(1, self.n_ports + 1):
                self._constant[(in_port, one_hop)] = ForwardingEntry(
                    (CONTROL_PROCESSOR_PORT,)
                )
        for in_port in range(1, self.n_ports + 1):
            # "0000" from a host: the local control processor
            self._constant[(in_port, ADDR_LOCAL_SWITCH)] = ForwardingEntry(
                (CONTROL_PROCESSOR_PORT,)
            )
            # "FFFC": reflect back down the receiving link
            self._constant[(in_port, ADDR_LOOPBACK)] = ForwardingEntry((in_port,))
        self._entries.update(self._constant)

    # -- lookup -------------------------------------------------------------------------

    def lookup(self, in_port: int, address: int) -> ForwardingEntry:
        """Return the entry for (receiving port, destination short address).

        Addresses not present in the table are discarded, as are the
        reserved values 0xFF0-0xFFB.
        """
        address = truncate_address(address)
        return self._entries.get((in_port, address), DISCARD_ENTRY)

    # -- loading --------------------------------------------------------------------------

    def clear_to_constant(self) -> None:
        """Step 1 of reconfiguration: forward only one-hop packets."""
        self._entries = dict(self._constant)
        self.generation += 1

    def set_entry(self, in_port: int, address: int, entry: ForwardingEntry) -> None:
        self._entries[(in_port, truncate_address(address))] = entry

    def remove_entry(self, in_port: int, address: int) -> None:
        self._entries.pop((in_port, truncate_address(address)), None)

    def load(
        self,
        entries: Dict[Tuple[int, int], ForwardingEntry],
        *,
        pretruncated: bool = False,
    ) -> None:
        """Load a computed configuration on top of the constant part.

        ``pretruncated=True`` asserts every key's address is already within
        the short-address range (true for tables straight out of
        :func:`repro.core.routing.build_forwarding_entries`), letting the
        load run as one C-speed dict update instead of a per-entry loop.
        """
        new = dict(self._constant)
        if pretruncated:
            new.update(entries)
        else:
            for (in_port, address), entry in entries.items():
                new[(in_port, truncate_address(address))] = entry
        self._entries = new
        self.generation += 1

    def entries(self) -> Dict[Tuple[int, int], ForwardingEntry]:
        return dict(self._entries)

    def non_constant_entries(self) -> Dict[Tuple[int, int], ForwardingEntry]:
        constant = self._constant
        return {
            key: entry
            for key, entry in self._entries.items()
            if key not in constant or constant[key] != entry
        }

    def __len__(self) -> int:
        return len(self._entries)
