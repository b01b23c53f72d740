"""TAXI flow-control directives and slot timing (sections 6.1, 6.2)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.flowcontrol import (
    FC_SLOT_PERIOD_NS,
    Directive,
    FlowControlReceiver,
    FlowControlSender,
    next_fc_slot,
)
from repro.net.link import connect
from repro.net.linkunit import IDHY_SEEN, IS_HOST, START_SEEN
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.types import Uid


class TestSlotTiming:
    def test_period_is_256_slots(self):
        assert FC_SLOT_PERIOD_NS == 256 * 80

    def test_next_slot_at_phase(self):
        assert next_fc_slot(0, 100) == 100
        assert next_fc_slot(100, 100) == 100
        assert next_fc_slot(101, 100) == 100 + FC_SLOT_PERIOD_NS

    def test_next_slot_multiple_periods(self):
        t = 100 + 3 * FC_SLOT_PERIOD_NS
        assert next_fc_slot(t - 1, 100) == t


class TestSender:
    def _make(self, sim, **kwargs):
        delivered = []
        sender = FlowControlSender(
            sim, deliver=delivered.append, propagation_ns=0, **kwargs
        )
        return sender, delivered

    def test_initial_directive_announced(self):
        sim = Simulator()
        sender, delivered = self._make(sim)
        sim.run(until=FC_SLOT_PERIOD_NS)
        assert delivered == [Directive.START]

    def test_host_sends_host_not_start(self):
        """Section 6.1: host controllers send host instead of start."""
        sim = Simulator()
        sender, delivered = self._make(sim, is_host=True)
        sim.run(until=FC_SLOT_PERIOD_NS)
        assert delivered == [Directive.HOST]

    def test_host_may_not_send_stop(self):
        """Section 6.2: host controllers may not send stop commands."""
        sim = Simulator()
        sender, delivered = self._make(sim, is_host=True)
        sender.set_level_directive(Directive.STOP)
        sim.run(until=3 * FC_SLOT_PERIOD_NS)
        assert Directive.STOP not in delivered

    def test_change_waits_for_slot_boundary(self):
        sim = Simulator()
        sender, delivered = self._make(sim, phase=0)
        sim.run(until=10)  # initial start went out at t=0
        sender.set_level_directive(Directive.STOP)
        sim.run(until=FC_SLOT_PERIOD_NS - 1)
        assert delivered == [Directive.START]
        sim.run(until=FC_SLOT_PERIOD_NS)
        assert delivered == [Directive.START, Directive.STOP]

    def test_rapid_toggle_collapses_to_latest(self):
        sim = Simulator()
        sender, delivered = self._make(sim, phase=0)
        sim.run(until=10)
        sender.set_level_directive(Directive.STOP)
        sender.set_level_directive(Directive.START)  # changed back pre-slot
        sim.run(until=2 * FC_SLOT_PERIOD_NS)
        assert delivered == [Directive.START]  # no spurious transition

    def test_force_idhy_overrides(self):
        sim = Simulator()
        sender, delivered = self._make(sim, phase=0)
        sender.force(Directive.IDHY)
        sim.run(until=FC_SLOT_PERIOD_NS)
        assert delivered[-1] == Directive.IDHY
        sender.force(None)
        sim.run(until=3 * FC_SLOT_PERIOD_NS)
        assert delivered[-1] == Directive.START

    def test_mute_silences_and_unmute_reannounces(self):
        sim = Simulator()
        sender, delivered = self._make(sim, phase=0)
        sender.mute(True)
        sim.run(until=2 * FC_SLOT_PERIOD_NS)
        assert delivered == []
        sender.mute(False)
        sim.run(until=4 * FC_SLOT_PERIOD_NS)
        assert delivered == [Directive.START]


class TestReceiver:
    def test_latches_last_directive(self):
        rx = FlowControlReceiver()
        rx.receive(Directive.START)
        rx.receive(Directive.STOP)
        assert rx.last is Directive.STOP
        assert not rx.transmission_allowed

    def test_persistence_of_latched_value(self):
        """The design oversight of section 6.2: with no further directives
        the last one keeps acting."""
        rx = FlowControlReceiver()
        rx.receive(Directive.STOP)
        # silence follows; nothing changes
        assert rx.last is Directive.STOP

    def test_host_directive_permits_and_flags(self):
        rx = FlowControlReceiver()
        rx.receive(Directive.HOST)
        assert rx.transmission_allowed
        assert rx.last is Directive.HOST

    def test_counters(self):
        """The receiver only latches; what arrived since the last read is
        accumulated by the link unit's status word."""
        sim = Simulator()
        unit = Switch(sim, "A", Uid(0xA)).ports[1]
        connect(sim, unit, Switch(sim, "B", Uid(0xB)).ports[1])
        for d in (Directive.START, Directive.IDHY, Directive.PANIC, Directive.HOST):
            unit.rx_flow_control(d)
        word = unit.sample_status()
        assert word & IDHY_SEEN  # an idhy arrived since the last read
        assert word & START_SEEN and word & IS_HOST  # host is what is latched
        assert not unit.sample_status() & IDHY_SEEN  # reading cleared the event

    def test_change_callback(self):
        changes = []
        rx = FlowControlReceiver(on_change=changes.append)
        seen = []
        for directive in (Directive.START, Directive.START, Directive.STOP):
            rx.receive(directive)
            seen.append(list(changes))
        # each change is reported as it is received, a repeat not at all
        assert seen == [[Directive.START], [Directive.START], [Directive.START, Directive.STOP]]


_DIRECTIVES = st.sampled_from(list(Directive))


@given(
    initial=_DIRECTIVES,
    received=st.lists(_DIRECTIVES, max_size=30),
)
def test_latched_gate_follows_the_latch(initial, received):
    """``transmission_allowed`` is a plain attribute every FIFO pass reads:
    from any power-up latch and after every directive received, it says
    whether the latched directive is start or host."""
    changes = []
    rx = FlowControlReceiver(on_change=changes.append, initial=initial)
    assert rx.transmission_allowed == (rx.last in (Directive.START, Directive.HOST))
    for directive in received:
        count, last = len(changes), rx.last
        rx.receive(directive)
        assert rx.last is directive
        assert rx.transmission_allowed == (rx.last in (Directive.START, Directive.HOST))
        # the latch still reports changes only
        assert len(changes) == count + (directive is not last)
