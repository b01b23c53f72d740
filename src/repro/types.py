"""Shared value types: UIDs, short addresses, node identities."""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    ADDR_BROADCAST_ALL,
    ADDR_BROADCAST_HOSTS,
    ADDR_BROADCAST_SWITCHES,
    ADDR_LAST_ASSIGNABLE,
    PORT_NUMBER_BITS,
    SHORT_ADDRESS_BITS,
)

#: mask selecting the low SHORT_ADDRESS_BITS of an address value
SHORT_ADDRESS_MASK = (1 << SHORT_ADDRESS_BITS) - 1
PORT_MASK = (1 << PORT_NUMBER_BITS) - 1

#: highest switch number encodable in a short address
MAX_SWITCH_NUMBER = (ADDR_LAST_ASSIGNABLE >> PORT_NUMBER_BITS)


@dataclass(frozen=True, order=True, slots=True)
class Uid:
    """A 48-bit unique identifier burned into every switch and controller.

    Ordering matters: the reconfiguration algorithm breaks ties by UID
    (root election, parent choice, switch-number conflicts).
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"UID out of 48-bit range: {self.value:#x}")

    def __repr__(self) -> str:
        return f"Uid({self.value:#x})"

    def __str__(self) -> str:
        return f"{self.value:012x}"


def make_short_address(switch_number: int, port: int) -> int:
    """Form a short address from a switch number and port number (§6.6.3)."""
    if not 1 <= switch_number <= MAX_SWITCH_NUMBER:
        raise ValueError(f"switch number out of range: {switch_number}")
    if not 0 <= port <= PORT_MASK:
        raise ValueError(f"port out of range: {port}")
    return (switch_number << PORT_NUMBER_BITS) | port


def truncate_address(address: int) -> int:
    """Prototype switches interpret only the low 11 bits (§6.3)."""
    return address & SHORT_ADDRESS_MASK


def is_broadcast(address: int) -> bool:
    address = truncate_address(address)
    return address in (ADDR_BROADCAST_ALL, ADDR_BROADCAST_SWITCHES, ADDR_BROADCAST_HOSTS)
