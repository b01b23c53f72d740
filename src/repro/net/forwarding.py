"""Switch forwarding tables (section 6.3).

A table is indexed by the concatenation of the receiving port number and a
packet's destination short address; here that memory is ``address -> row``
with a row indexed by receiving port.  Each entry holds a 13-bit port
vector and a broadcast flag:

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
from typing import Dict, Iterator, Mapping, Optional, Tuple

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

#: one word of the memory per receiving port, 0 (the control processor) first
Row = Tuple[ForwardingEntry, ...]
#: a table as built, loaded and swept: destination short address -> row
RowMap = Mapping[int, Row]


def distinct_rows(rows: RowMap) -> Iterator[Tuple[int, Row]]:
    """``(first address, row)`` for each run of addresses sharing one row
    object -- in a computed table, once per destination switch instead of
    once per port address.  What holds for a row holds at every address
    and receiving port that reads it, so the table sweeps iterate these.
    """
    last: Optional[Row] = None
    for address, row in rows.items():
        if row is not last:
            last = row
            yield address, row


class ForwardingTable:
    """The forwarding memory of one switch: destination short address ->
    row, a row holding one entry per receiving port (0 = the control
    processor).  Rows are *total*: a cell nothing was written to holds
    :data:`DISCARD_ENTRY`, which is what the hardware does with it.  Rows
    are immutable and may be shared between addresses (all port addresses
    of one destination switch share theirs) and between tables.
    """

    def __init__(self) -> None:
        self._discard_row: Row = (DISCARD_ENTRY,) * (PORTS_PER_SWITCH + 1)
        self._constant = self._constant_part()
        self._rows: Dict[int, Row] = dict(self._constant)
        #: incremented on every full load, for tests and tracing
        self.generation = 0

    def _constant_part(self) -> Dict[int, Row]:
        """One-hop, local-switch, and loopback rows (section 6.3)."""
        to_cp = ForwardingEntry((CONTROL_PROCESSOR_PORT,))
        rows: Dict[int, Row] = {}
        for out_port in range(1, PORTS_PER_SWITCH + 1):
            one_hop = ADDR_ONE_HOP_BASE + out_port - 1
            if one_hop > ADDR_ONE_HOP_LIMIT:
                break
            # from the control processor: transmit on the numbered port;
            # from any external port: deliver to the control processor
            rows[one_hop] = (ForwardingEntry((out_port,)),) + (to_cp,) * PORTS_PER_SWITCH
        # "0000" from a host: the local control processor
        rows[ADDR_LOCAL_SWITCH] = (DISCARD_ENTRY,) + (to_cp,) * PORTS_PER_SWITCH
        # "FFFC": reflect back down the receiving link
        rows[ADDR_LOOPBACK] = (DISCARD_ENTRY,) + tuple(
            ForwardingEntry((in_port,)) for in_port in range(1, PORTS_PER_SWITCH + 1)
        )
        return rows

    # -- lookup -------------------------------------------------------------------------

    def lookup(self, in_port: int, address: int) -> ForwardingEntry:
        """Return the entry for (receiving port, destination short address).

        Addresses not present in the table are discarded, as are the
        reserved values 0xFF0-0xFFB.
        """
        return self._rows.get(truncate_address(address), self._discard_row)[in_port]

    # -- loading --------------------------------------------------------------------------

    def clear_to_constant(self) -> None:
        """Step 1 of reconfiguration: forward only one-hop packets."""
        self._rows = dict(self._constant)
        self.generation += 1

    def set_entry(self, in_port: int, address: int, entry: ForwardingEntry) -> None:
        """Write one cell.  The row is copied first, so the other addresses
        (and tables) sharing it keep theirs."""
        address = truncate_address(address)
        row = list(self._rows.get(address, self._discard_row))
        row[in_port] = entry
        self._rows[address] = tuple(row)

    def load(self, rows: RowMap) -> None:
        """Load a computed configuration on top of the constant part.

        ``rows`` maps short addresses (already within the 11-bit range, as
        :func:`repro.core.routing.build_forwarding_entries` makes them) to
        rows of ``PORTS_PER_SWITCH + 1`` entries; the rows are referenced, not copied.
        """
        new = dict(self._constant)
        new.update(rows)
        self._rows = new
        self.generation += 1

    def non_constant_rows(self) -> Dict[int, Row]:
        """The rows a load or :meth:`set_entry` put there, by address."""
        constant = self._constant
        return {
            address: row for address, row in self._rows.items() if constant.get(address) != row
        }

    def __len__(self) -> int:
        """Rows held, the constant part included."""
        return len(self._rows)
