"""Packet format (section 6.8) and short-address helpers (section 6.3)."""

import pytest

from repro.constants import (
    ADDR_BROADCAST_ALL,
    ADDR_BROADCAST_HOSTS,
    ADDR_BROADCAST_SWITCHES,
    ADDR_FIRST_ASSIGNABLE,
    ADDR_LAST_ASSIGNABLE,
    ADDR_LOOPBACK,
)
from repro.net.packet import ETHERNET_HEADER_BYTES, Packet, PacketType
from repro.sim.engine import Simulator
from repro.types import (
    MAX_SWITCH_NUMBER,
    Uid,
    is_broadcast,
    make_short_address,
    split_short_address,
    truncate_address,
)


class TestShortAddresses:
    def test_format_round_trip(self):
        address = make_short_address(5, 9)
        assert split_short_address(address) == (5, 9)

    def test_port_in_low_bits(self):
        """Section 6.6.3: the port number occupies the least significant bits."""
        assert make_short_address(1, 0) == 0x10
        assert make_short_address(1, 15) == 0x1F

    def test_switch_number_range(self):
        assert MAX_SWITCH_NUMBER == 126
        with pytest.raises(ValueError):
            make_short_address(0, 1)
        with pytest.raises(ValueError):
            make_short_address(MAX_SWITCH_NUMBER + 1, 0)

    def test_assignable_window(self):
        """0010-FFEF (truncated to 11 bits) are assignable (section 6.3)."""
        assert truncate_address(ADDR_FIRST_ASSIGNABLE) == 0x0010
        assert truncate_address(ADDR_LAST_ASSIGNABLE) == 0x7EF
        assert make_short_address(1, 0) == truncate_address(ADDR_FIRST_ASSIGNABLE)
        assert make_short_address(MAX_SWITCH_NUMBER, 15) == truncate_address(ADDR_LAST_ASSIGNABLE)

    def test_reserved_classes(self):
        assert is_broadcast(ADDR_BROADCAST_ALL)
        assert is_broadcast(ADDR_BROADCAST_SWITCHES)
        assert is_broadcast(ADDR_BROADCAST_HOSTS)
        assert not is_broadcast(ADDR_LOOPBACK)
        assert not is_broadcast(ADDR_LAST_ASSIGNABLE)

    def test_truncation_to_11_bits(self):
        """Prototype switches interpret only the low 11 bits (section 6.3)."""
        assert truncate_address(0xFFFF) == 0x7FF
        assert truncate_address(0xFFFC) == 0x7FC

    def test_uid_validation(self):
        with pytest.raises(ValueError):
            Uid(1 << 48)
        with pytest.raises(ValueError):
            Uid(-1)
        assert Uid(5) < Uid(6)


class TestPacket:
    def test_client_wire_size(self):
        """32-byte Autonet header + 14-byte Ethernet header + data + 8 CRC."""
        packet = Packet(dest_short=0x20, src_short=0x30, data_bytes=1000)
        assert packet.wire_bytes == 32 + ETHERNET_HEADER_BYTES + 1000 + 8

    def test_control_wire_size(self):
        packet = Packet(
            dest_short=0x1, src_short=0, ptype=PacketType.RECONFIGURATION, data_bytes=40
        )
        assert packet.wire_bytes == 32 + 40 + 8

    def test_broadcast_detection(self):
        assert Packet(dest_short=0xFFFF, src_short=0).is_broadcast
        assert Packet(dest_short=0xFFFD, src_short=0).is_broadcast
        assert not Packet(dest_short=0x20, src_short=0).is_broadcast

    def test_addresses_truncated(self):
        packet = Packet(dest_short=0xFFFF, src_short=0xFFFE)
        assert packet.dest_short == 0x7FF
        assert packet.src_short == 0x7FE

    def test_oversized_data_rejected(self):
        with pytest.raises(ValueError):
            Packet(dest_short=0x20, src_short=0, data_bytes=64 * 1024 + 1)

    def test_hop_recording(self):
        packet = Packet(dest_short=0x20, src_short=0)
        packet.record_hop("sw0", 3, (7,))
        packet.record_hop("sw1", 2, (0,))
        assert len(packet.trail) == 2
        assert packet.trail[0] == ("sw0", 3, (7,))

    def test_unique_ids(self):
        """Ids are minted per simulator, from 1: two simulators in one
        process mint the same sequence."""
        sim = Simulator()
        a = Packet(dest_short=0x20, src_short=0, packet_id=sim.new_packet_id())
        b = Packet(dest_short=0x20, src_short=0, packet_id=sim.new_packet_id())
        assert (a.packet_id, b.packet_id) == (1, 2)
        assert Simulator().new_packet_id() == 1
