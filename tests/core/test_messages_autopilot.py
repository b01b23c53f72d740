"""Message encodings and Autopilot unit behaviors."""


from repro.constants import SEC
from repro.core.autopilot import AutopilotParams, CpuModel
from repro.core.messages import (
    AckMsg,
    ConfigMsg,
    ConnectivityProbe,
    LinkDownMsg,
    SrpMessage,
    StableMsg,
    TreePositionMsg,
)
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import expected_tree, line, torus
from repro.types import Uid, make_short_address


class TestMessageSizes:
    def test_unique_ids(self):
        """Ids are minted per simulator, from 1, apart from packet ids."""
        sim = Simulator()
        sim.new_packet_id()
        a = AckMsg(epoch=1, sender_uid=Uid(1), msg_id=sim.new_msg_id())
        b = AckMsg(epoch=1, sender_uid=Uid(1), msg_id=sim.new_msg_id())
        assert (a.msg_id, b.msg_id) == (1, 2)
        assert Simulator().new_msg_id() == 1

    def test_reliability_flags(self):
        assert TreePositionMsg.needs_ack
        assert StableMsg.needs_ack
        assert ConfigMsg.needs_ack
        assert not AckMsg.needs_ack
        assert not ConnectivityProbe.needs_ack
        assert not LinkDownMsg.needs_ack

    def test_report_size_grows_with_subtree(self):
        """Section 6.6.1: topology reports grow as stability moves up."""
        small = StableMsg(
            epoch=1, sender_uid=Uid(1), subtree=expected_tree(line(2))
        )
        big = StableMsg(
            epoch=1, sender_uid=Uid(1), subtree=expected_tree(torus(4, 4))
        )
        assert big.encoded_bytes() > small.encoded_bytes()

    def test_srp_size_grows_with_route(self):
        short = SrpMessage(epoch=0, sender_uid=Uid(1), route=(1,))
        long = SrpMessage(epoch=0, sender_uid=Uid(1), route=tuple(range(1, 9)))
        assert long.encoded_bytes() > short.encoded_bytes()


class TestCpuModel:
    def test_route_cost_scales_with_switches(self):
        cpu = CpuModel.tuned()
        assert cpu.route_cost(30) > cpu.route_cost(4)
        assert cpu.route_cost(30) == cpu.route_base_ns + 30 * cpu.route_per_switch_ns

    def test_naive_slower_everywhere(self):
        tuned, naive = CpuModel.tuned(), CpuModel.naive()
        assert naive.packet_handle_ns > tuned.packet_handle_ns
        assert naive.route_cost(30) > 5 * tuned.route_cost(30)
        assert naive.table_load_ns > tuned.table_load_ns

    def test_naive_params_slow_monitors_too(self):
        params = AutopilotParams.naive()
        default = AutopilotParams()
        assert params.monitor.probe_period_ns > default.monitor.probe_period_ns
        assert params.reconfig.retx_period_ns > default.reconfig.retx_period_ns


class TestAutopilotServices:
    def test_host_address_service(self):
        """A packet to 0x000 gets a reply carrying the attachment port's
        short address (sections 5.4, 6.3)."""
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)
        number = net.autopilots[0].engine.my_number
        assert net.drivers["h"].short_address == make_short_address(number, 5)

    def test_corrupted_cp_packets_counted(self):
        """CRCs for control-processor packets are checked in software
        (section 5.1)."""
        net = Network(line(2))
        net.run_for(2 * SEC)
        from repro.net.packet import Packet, PacketType

        bad = Packet(dest_short=0x1, src_short=0,
                     ptype=PacketType.RECONFIGURATION, data_bytes=64,
                     corrupted=True)
        ap = net.autopilots[0]
        before = ap.crc_errors
        ap._rx_interrupt(bad)
        net.run_for(1 * SEC)
        assert ap.crc_errors == before + 1

    def test_halted_autopilot_ignores_traffic(self):
        net = Network(line(2))
        net.run_for(2 * SEC)
        ap = net.autopilots[0]
        handled = ap.packets_handled
        ap.halt()
        net.run_for(5 * SEC)
        assert ap.packets_handled == handled

    def test_short_address_property(self):
        net = Network(line(2))
        assert net.run_until_converged(timeout_ns=60 * SEC)
        ap = net.autopilots[0]
        assert ap.short_address == make_short_address(ap.engine.my_number, 0)

    def test_trace_is_bounded(self):
        """The event log is circular (section 6.7)."""
        net = Network(line(2))
        net.run_for(2 * SEC)
        ap = net.autopilots[0]
        for i in range(5000):
            ap.log("filler", str(i))
        assert len(ap.trace) <= ap.trace.capacity
