"""Switch behaviors: crossbar bookkeeping, resets, power, broadcast
forwarding through real hardware paths."""

import pytest

from repro.constants import ADDR_ONE_HOP_BASE, SEC
from repro.core.routing import build_forwarding_entries
from repro.net.flowcontrol import Directive
from repro.net.forwarding import ForwardingEntry
from repro.net.link import connect
from repro.net.linkunit import BAD_CODE
from repro.net.packet import Packet, PacketType
from repro.net.scheduler import Request
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.topology.generators import TopologySpec, expected_tree
from repro.types import Uid, make_short_address


class TestCrossbar:
    """The crossbar is the switch's per-output list of the input feeding it."""

    @staticmethod
    def held_grant():
        """The control processor's one-hop packet granted output 2, whose
        latched stop holds the drain: the connection stays up."""
        sim = Simulator()
        switch = Switch(sim, "sw", Uid(0xA))
        switch.ports[2].fc_receiver.receive(Directive.STOP)
        switch.inject_from_cp(Packet(dest_short=ADDR_ONE_HOP_BASE + 1, src_short=0,
                                     ptype=PacketType.DIAGNOSTIC, data_bytes=100))
        sim.run_for(10_000)
        return sim, switch

    def test_connect_disconnect(self):
        sim, switch = self.held_grant()
        assert switch._feeding == [None, None, 0] + [None] * 10
        tx, ended = switch.ports[2].tx, []
        free = tx.on_end
        tx.on_end = lambda packet: (ended.append(packet), free(packet))
        switch.ports[2].fc_receiver.receive(Directive.START)
        sim.run_for(100_000)
        assert switch._feeding == [None] * 13 and len(ended) == 1

    def test_double_assignment_rejected(self):
        sim, switch = self.held_grant()
        packet = Packet(dest_short=0x20, src_short=0, ptype=PacketType.DIAGNOSTIC)
        with pytest.raises(RuntimeError):
            switch._granted(Request(1, ForwardingEntry((2,)), packet), (2,))

    def test_clear(self):
        sim, switch = self.held_grant()
        switch.reset()
        assert switch._feeding == [None] * 13


def star_switch(sim, host_ports):
    """One switch with a static table delivering its own addresses."""
    spec = TopologySpec(uids=[Uid(0x1000)], name="single")
    topology = expected_tree(spec, host_ports={0: host_ports})
    switch = Switch(sim, "sw0", spec.uids[0])
    switch.load_table(build_forwarding_entries(topology, spec.uids[0]))
    return switch


class TestHardwareBroadcast:
    def test_simultaneous_forwarding(self):
        """A broadcast entry forwards on all listed ports at once."""
        from repro.host.controller import HostController

        sim = Simulator()
        switch = star_switch(sim, [1, 2, 3])
        hosts = []
        got = []
        for port in (1, 2, 3):
            host = HostController(sim, f"h{port}", Uid(0xA00 + port))
            connect(sim, host.ports[0], switch.ports[port], length_km=0.01)
            host.on_receive = lambda p, port=port: got.append(port)
            hosts.append(host)
        sim.run_for(1 * SEC)  # host directives announce

        hosts[0].send(
            Packet(dest_short=0x7FF, src_short=make_short_address(1, 1),
                   ptype=PacketType.CLIENT, dest_uid=None,
                   src_uid=hosts[0].uid, data_bytes=100)
        )
        sim.run_for(1 * SEC)
        # flood set includes the sender's own port (down-phase delivery)
        assert sorted(got) == [1, 2, 3]

    def test_unicast_between_local_hosts(self):
        from repro.host.controller import HostController

        sim = Simulator()
        switch = star_switch(sim, [1, 2])
        a = HostController(sim, "a", Uid(0xA1))
        b = HostController(sim, "b", Uid(0xB1))
        connect(sim, a.ports[0], switch.ports[1], length_km=0.01)
        connect(sim, b.ports[0], switch.ports[2], length_km=0.01)
        got = []
        b.on_receive = got.append
        sim.run_for(1 * SEC)
        a.send(Packet(dest_short=make_short_address(1, 2), src_short=0,
                      dest_uid=b.uid, src_uid=a.uid, data_bytes=256))
        sim.run_for(1 * SEC)
        assert len(got) == 1 and got[0].data_bytes == 256


class TestResetSemantics:
    def test_reset_destroys_inflight_packets(self):
        sim = Simulator()
        a = Switch(sim, "A", Uid(0xA))
        b = Switch(sim, "B", Uid(0xB))
        connect(sim, a.ports[3], b.ports[7], length_km=2.0)
        received = []
        b.on_cp_packet = lambda packet, _port: received.append(packet)
        # a long packet mid-flight when the reset hits
        a.inject_from_cp(
            Packet(dest_short=ADDR_ONE_HOP_BASE + 2, src_short=0,
                   ptype=PacketType.RECONFIGURATION, data_bytes=50_000)
        )
        sim.run_for(1_000_000)  # 1 ms: transfer under way
        assert a.ports[3].tx.current is not None
        a.reset()
        sim.run_for(100_000_000)
        # the truncated packet either never arrives or arrives marked
        # corrupted (software CRC would reject it at the CP)
        assert not received or received[0].corrupted
        assert a.ports[3].tx.current is None

    def test_reset_counts(self):
        sim = Simulator()
        switch = Switch(sim, "A", Uid(0xA))
        switch.load_table({}, reset_on_load=True)
        switch.load_table({}, reset_on_load=False)
        assert switch.resets == 1

    def test_clear_table_keeps_one_hop(self):
        sim = Simulator()
        switch = Switch(sim, "A", Uid(0xA))
        switch.table.set_entry(1, 0x100, ForwardingEntry((2,)))
        switch.clear_table()
        assert switch.table.lookup(1, 0x100).is_discard
        assert not switch.table.lookup(1, ADDR_ONE_HOP_BASE).is_discard


class TestPower:
    def test_powered_off_switch_forwards_nothing(self):
        sim = Simulator()
        a = Switch(sim, "A", Uid(0xA))
        b = Switch(sim, "B", Uid(0xB))
        connect(sim, a.ports[3], b.ports[7], length_km=0.1)
        received = []
        b.on_cp_packet = lambda packet, _port: received.append(packet)
        a.power_off()
        a.inject_from_cp(
            Packet(dest_short=ADDR_ONE_HOP_BASE + 2, src_short=0,
                   ptype=PacketType.RECONFIGURATION, data_bytes=64)
        )
        sim.run_for(50_000_000)
        assert received == []

    def test_power_cycle_restores_forwarding(self):
        sim = Simulator()
        a = Switch(sim, "A", Uid(0xA))
        b = Switch(sim, "B", Uid(0xB))
        connect(sim, a.ports[3], b.ports[7], length_km=0.1)
        received = []
        b.on_cp_packet = lambda packet, _port: received.append(packet)
        a.power_off()
        a.power_on()
        a.inject_from_cp(
            Packet(dest_short=ADDR_ONE_HOP_BASE + 2, src_short=0,
                   ptype=PacketType.RECONFIGURATION, data_bytes=64)
        )
        sim.run_for(50_000_000)
        assert len(received) == 1

    def test_unpowered_switch_is_silent_on_links(self):
        sim = Simulator()
        a = Switch(sim, "A", Uid(0xA))
        b = Switch(sim, "B", Uid(0xB))
        connect(sim, a.ports[3], b.ports[7], length_km=0.1)
        a.power_off()
        assert b.ports[7].sample_status() & BAD_CODE  # silence reads as code violations


class TestIsolatePort:
    def test_isolation_releases_broadcast_grant(self):
        """A dead input port must release the output ports its granted
        broadcast was holding (the wedge the E9 debugging found)."""
        sim = Simulator()
        switch = star_switch(sim, [1, 2, 3])
        # fabricate a granted-but-stuck broadcast from port 1: a latched
        # stop on one of its outputs keeps the drain from ever starting
        switch.ports[2].fc_receiver.receive(Directive.STOP)
        pkt = Packet(dest_short=0x7FF, src_short=0, data_bytes=100)
        switch.ports[1].rx_begin_packet(pkt, 1.0)
        sim.run_for(1_000_000)
        held = [p for p in range(13) if not switch.engine.free >> p & 1]
        assert held, "the broadcast was never granted"
        switch.isolate_port(1)
        sim.run_for(1_000_000)
        free_now = [p for p in held if switch.engine.free >> p & 1]
        assert free_now == held, "isolation did not free granted ports"
        assert not switch.ports[1].fifo.queue
