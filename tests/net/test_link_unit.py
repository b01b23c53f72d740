"""Link physics: propagation, failure modes, fault fingerprints."""

import pytest

from repro.constants import BYTE_TIME_NS
from repro.net.link import LinkState, connect, propagation_ns
from repro.net.linkunit import BAD_CODE, IDHY_SEEN, IS_HOST, START_SEEN
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.types import Uid


def make_pair():
    sim = Simulator()
    a = Switch(sim, "A", Uid(0xA))
    b = Switch(sim, "B", Uid(0xB))
    link = connect(sim, a.ports[1], b.ports[1], length_km=1.0)
    return sim, a, b, link


class TestPropagation:
    def test_quantized_to_slots(self):
        assert propagation_ns(1.0) % BYTE_TIME_NS == 0

    def test_paper_w_formula(self):
        """W = 64.1 L bytes in flight one-way per km (section 6.2)."""
        assert propagation_ns(2.0) == pytest.approx(128.2 * 80, abs=80)

    def test_minimum_one_slot(self):
        assert propagation_ns(0.0001) == BYTE_TIME_NS


class TestFailureModes:
    def test_cut_link_delivers_nothing(self):
        sim, a, b, link = make_pair()
        link.set_state(LinkState.CUT)
        received = []
        b.on_cp_packet = lambda packet, _port: received.append(packet)
        a.inject_from_cp(Packet(dest_short=0x1, src_short=0, data_bytes=64))
        sim.run_for(50_000_000)
        assert received == []

    def test_cut_link_fingerprint_is_silence(self):
        sim, a, b, link = make_pair()
        link.set_state(LinkState.CUT)
        assert link.received_condition(a.ports[1]) == "silence"
        assert link.received_condition(b.ports[1]) == "silence"

    def test_reflection_routes_back_to_sender(self):
        sim, a, b, link = make_pair()
        link.set_state(LinkState.REFLECTING_A)
        assert link.received_condition(a.ports[1]) == "own-signal"
        # the far (unpowered) side hears nothing
        assert link.received_condition(b.ports[1]) == "silence"

    def test_reflection_doubles_delay(self):
        sim, a, b, link = make_pair()
        link.set_state(LinkState.REFLECTING_A)
        arrivals = []
        a.ports[1].fifo.on_head_ready = lambda pkt: arrivals.append(sim.now)
        # send a one-hop packet: it reflects into A's own port-1 FIFO
        a.inject_from_cp(Packet(dest_short=0x1, src_short=0, data_bytes=64))
        sim.run_for(50_000_000)
        assert arrivals, "no reflection observed"

    def test_noisy_link_fingerprint(self):
        sim, a, b, link = make_pair()
        link.set_state(LinkState.NOISY)
        assert a.ports[1].sample_status() & BAD_CODE
        assert b.ports[1].sample_status() & BAD_CODE

    def test_restore_reannounces_flow_control(self):
        sim, a, b, link = make_pair()
        sim.run_for(1_000_000)
        assert b.ports[1].fc_receiver.transmission_allowed
        link.set_state(LinkState.CUT)
        # while cut, the latch persists (the section 6.2 oversight)
        assert b.ports[1].fc_receiver.transmission_allowed
        link.set_state(LinkState.UP)
        sim.run_for(1_000_000)
        assert b.ports[1].fc_receiver.transmission_allowed

    def test_other_endpoint_lookup(self):
        sim, a, b, link = make_pair()
        assert link.other(a.ports[1]) is b.ports[1]
        with pytest.raises(ValueError):
            link.other(a.ports[2])


class TestStatusBits:
    def test_is_host_bit(self):
        from repro.host.controller import HostController

        sim = Simulator()
        switch = Switch(sim, "A", Uid(0xA))
        host = HostController(sim, "h", Uid(0xB))
        connect(sim, host.ports[0], switch.ports[5], length_km=0.1)
        sim.run_for(1_000_000)
        word = switch.ports[5].sample_status()
        assert word & IS_HOST
        assert word & START_SEEN  # host directive permits transmission

    def test_switch_neighbor_not_is_host(self):
        sim, a, b, link = make_pair()
        sim.run_for(1_000_000)
        word = a.ports[1].sample_status()
        assert not word & IS_HOST
        assert word & START_SEEN

    def test_idhy_chronic_while_latched(self):
        sim, a, b, link = make_pair()
        from repro.net.flowcontrol import Directive

        a.ports[1].force_directive(Directive.IDHY)
        sim.run_for(1_000_000)
        first = b.ports[1].sample_status()
        second = b.ports[1].sample_status()
        assert first & IDHY_SEEN
        assert second & IDHY_SEEN  # chronic, not a one-shot event

    def test_unconnected_port_has_no_link(self):
        sim = Simulator()
        switch = Switch(sim, "A", Uid(0xA))
        assert not switch.ports[1].connected
