"""Host controller and driver units: buffering, port selection, probing."""

import gc

from repro.constants import SEC
from repro.core.portstate import PortState
from repro.host.controller import HostController
from repro.net.flowcontrol import Directive
from repro.net.linkunit import BAD_SYNTAX
from repro.net.packet import Packet
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import line
from repro.types import Uid


class TestController:
    def test_tx_buffer_limit(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        controller.tx_buffer_bytes = 10_000
        accepted = 0
        for _ in range(20):
            if controller.send(Packet(dest_short=0x20, src_short=0, data_bytes=1000)):
                accepted += 1
        assert accepted < 20
        assert controller.packets_dropped_tx == 20 - accepted

    def test_select_port_switches_activity(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        assert controller.active_port is controller.ports[0]
        controller.select_port(1)
        assert controller.active_index == 1
        assert controller.ports[1].active
        assert not controller.ports[0].active

    def test_select_same_port_noop(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        controller.select_port(0)
        assert controller.active_index == 0

    def test_corrupted_packets_counted_as_crc_errors(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        pkt = Packet(dest_short=0x20, src_short=0, data_bytes=100, corrupted=True)
        controller._rx_complete(controller.ports[0], pkt)
        assert controller.crc_errors == 1
        assert controller.packets_received == 0

    def test_rx_buffer_overflow_drops(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        controller.rx_buffer_bytes = 2_000
        controller.rx_processing_ns = 10 * SEC  # effectively never drains
        for _ in range(5):
            controller._rx_complete(
                controller.ports[0], Packet(dest_short=0x20, src_short=0, data_bytes=900)
            )
        assert controller.packets_dropped_rx > 0

    def test_powered_off_controller_ignores_everything(self):
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        controller.power_off()
        assert not controller.send(Packet(dest_short=0x20, src_short=0, data_bytes=64))

    def test_powered_off_mid_packet_keeps_no_reference_to_it(self):
        """A begin whose end never counts (power-off, cable cut between the
        two) must not pin the packet for the life of the run."""
        sim = Simulator()
        controller = HostController(sim, "h", Uid(0xA))
        pkt = Packet(dest_short=0x20, src_short=0, data_bytes=100)
        controller.ports[0].rx_begin_packet(pkt, 1.0)
        controller.power_off()
        controller.ports[0].rx_end_packet(pkt)
        assert controller.packets_received == 0
        holders = [r for r in gc.get_referrers(pkt) if isinstance(r, (list, dict, set, tuple))]
        assert holders == []


class TestDriver:
    def test_learns_short_address(self):
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)
        driver = net.drivers["h"]
        assert driver.ready
        number = net.autopilots[0].engine.my_number
        from repro.types import make_short_address

        assert driver.short_address == make_short_address(number, 5)

    def test_probe_traffic_is_light(self):
        """The keep-alive probe runs every couple of seconds, not per-packet."""
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        # an idle host sends nothing but the driver's probes
        controller = net.hosts["h"]
        before = controller.packets_sent
        net.run_for(10 * SEC)
        assert 0 < controller.packets_sent - before <= 7

    def test_failover_timing_three_seconds(self):
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)
        driver = net.drivers["h"]
        assert driver.controller.active_index == 0
        t0 = net.sim.now
        net.crash_switch(0)
        while driver.controller.active_index == 0 and net.sim.now < t0 + 30 * SEC:
            net.run_for(100_000_000)
        elapsed = net.sim.now - t0
        # section 6.8.3: switch links after ~3 s without a response
        assert 2 * SEC <= elapsed <= 7 * SEC

    def test_address_relearned_after_failover(self):
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)
        old = net.drivers["h"].short_address
        net.crash_switch(0)
        net.run_for(20 * SEC)
        assert net.drivers["h"].ready
        assert net.drivers["h"].short_address != old

    def test_failover_makes_new_port_active_fingerprint(self):
        """After failover the new switch port sees the host directive and
        the abandoned port shows the alternate fingerprint."""
        net = Network(line(2))
        net.add_host("h", [(0, 5), (1, 5)])
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(5 * SEC)
        net.hosts["h"].select_port(1)
        net.run_for(5 * SEC)
        assert net.autopilots[1].monitoring.state_of(5) is PortState.HOST
        assert net.switches[1].ports[5].fc_receiver.last is Directive.HOST
        # the abandoned port's latch keeps the stale host directive (the
        # section 6.2 oversight) but the wire now carries only syncs
        assert net.switches[0].ports[5].sample_status() & BAD_SYNTAX
        # both ports remain classified s.host, so failing back over later
        # needs no forwarding-table change (section 6.5.3)
        assert net.autopilots[0].monitoring.state_of(5) is PortState.HOST
