"""The section 7 / 6.1 extension facilities: direction-tagged links
(reflected-packet discard) and the panic directive."""


from repro.constants import SEC
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.flowcontrol import Directive
from repro.network import Network
from repro.topology import line


def storm_copies(direction_tagged: bool) -> int:
    """One broadcast into a network with a reflecting dead-host link;
    count copies arriving at an innocent observer."""
    net = Network(line(3), direction_tagged_links=direction_tagged)
    net.add_host("victim", [(1, 9)])
    net.add_host("observer", [(2, 9)])
    net.add_host("sender", [(0, 10)])
    LocalNet(net.drivers["observer"])
    ln_send = LocalNet(net.drivers["sender"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    net.power_off_host("victim", reflect=True)
    ctrl = net.hosts["observer"]
    before = ctrl.packets_received + ctrl.crc_errors
    ln_send.send(BROADCAST_UID, 200)
    net.run_for(2 * SEC)
    return ctrl.packets_received + ctrl.crc_errors - before


def test_direction_tagging_prevents_broadcast_storm():
    """Section 7: 'make packets traveling in the up direction look
    different than those traveling down... The link unit could then
    automatically discard packets headed in the wrong direction.'"""
    assert storm_copies(direction_tagged=False) > 20   # the storm
    assert storm_copies(direction_tagged=True) <= 2    # reflection discarded


def test_direction_tagging_counts_discards():
    net = Network(line(2), direction_tagged_links=True)
    net.add_host("victim", [(0, 9)])
    net.add_host("sender", [(1, 9)])
    ln_send = LocalNet(net.drivers["sender"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    net.power_off_host("victim", reflect=True)
    ln_send.send(BROADCAST_UID, 100)
    net.run_for(1 * SEC)
    assert net.switches[0].ports[9].misdirected_discards >= 1


class TestPanic:
    def test_panic_resets_far_link_unit(self):
        """The panic directive clears the far FIFO and reinitializes link
        control so reconfiguration packets can get through (section 6.1)."""
        net = Network(line(2))
        assert net.run_until_converged(timeout_ns=60 * SEC)
        a, pa, b, pb = net.spec.cables[0]
        far_unit = net.switches[b].ports[pb]
        # wedge the far FIFO with a stuck packet (simulate a hung drain)
        from repro.net.packet import Packet

        stuck = Packet(dest_short=0x123, src_short=0, data_bytes=100)
        far_unit.fifo.begin_packet(stuck, 0.0)
        far_unit.fifo.queue[-1].bytes_in = float(stuck.wire_bytes)
        far_unit.fifo.queue[-1].arriving = False
        assert len(far_unit.fifo.queue) == 1

        panics = []
        reset_hook = far_unit.on_panic
        far_unit.on_panic = lambda: (panics.append(net.sim.now), reset_hook())

        near_unit = net.switches[a].ports[pa]
        near_unit.send_panic()
        net.run_for(1 * SEC)
        # the panic was a pulse and has been consumed: it reset the far
        # link unit exactly once and the steady directive is latched again
        assert len(panics) == 1
        assert far_unit.fc_receiver.last is Directive.START
        assert len(far_unit.fifo.queue) == 0, "panic did not clear the FIFO"

    def test_panic_pulse_then_steady_directive(self):
        """After a panic pulse the steady directive resumes, so the link
        returns to normal flow control."""
        net = Network(line(2))
        assert net.run_until_converged(timeout_ns=60 * SEC)
        a, pa, b, pb = net.spec.cables[0]
        near = net.switches[a].ports[pa]
        far = net.switches[b].ports[pb]
        near.send_panic()
        net.run_for(1 * SEC)
        # the far side latched the steady directive again (start), and the
        # link is still classified good on both sides
        assert far.fc_receiver.last in (Directive.START,)
        from repro.core.portstate import PortState

        assert net.autopilots[a].monitoring.state_of(pa) is PortState.SWITCH_GOOD
        assert net.autopilots[b].monitoring.state_of(pb) is PortState.SWITCH_GOOD

    @staticmethod
    def _wedge_and_observe(use_panic: bool):
        """Latch a stale stop on one end of a switch link (the section 6.2
        oversight, e.g. after a glitch) and see whether the blockage is
        cleared by a panic or by declaring the port dead."""
        from repro.core.autopilot import AutopilotParams
        from repro.core.portstate import PortState

        def factory(_i):
            params = AutopilotParams()
            params.monitor.use_panic = use_panic
            params.monitor.blockage_sample_limit = 20
            return params

        net = Network(line(2), params_factory=factory)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(2 * SEC)
        a, pa, b, pb = net.spec.cables[0]
        # sw0's port latches a stale stop; nothing re-announces it because
        # the far end's steady directive has not changed
        net.switches[a].ports[pa].fc_receiver.receive(Directive.STOP)
        net.run_for(5 * SEC)
        return net.autopilots[a].monitoring.state_of(pa), net

    def test_blockage_kills_port_without_panic(self):
        _state, net = self._wedge_and_observe(use_panic=False)
        # the blockage detector sent the port to s.dead (it may be
        # re-qualifying again by the time we look)
        a = net.spec.cables[0][0]
        events = [e.detail for e in net.autopilots[a].trace.entries()
                  if e.event == "port-state"]
        assert any("no start directives" in d for d in events)

    def test_use_panic_clears_blockage_and_saves_port(self):
        from repro.core.portstate import PortState

        state, _net = self._wedge_and_observe(use_panic=True)
        assert state is PortState.SWITCH_GOOD
