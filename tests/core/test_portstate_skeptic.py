"""Port states (Figure 8) and the skeptics (section 6.5.5)."""

from repro.constants import MS, SEC
from repro.core.portstate import (
    RECONFIGURING_TRANSITIONS, SAMPLER_TRANSITIONS, PortState, transition_allowed,
)
from repro.core import skeptic as skeptic_module
from repro.core.skeptic import ConnectivitySkeptic, SkepticParams, StatusSkeptic


class TestPortState:
    def test_switch_family(self):
        assert PortState.SWITCH_WHO.is_switch
        assert PortState.SWITCH_LOOP.is_switch
        assert PortState.SWITCH_GOOD.is_switch
        assert not PortState.HOST.is_switch

    def test_figure8_sampler_arrows(self):
        assert transition_allowed(PortState.DEAD, PortState.CHECKING)
        assert transition_allowed(PortState.CHECKING, PortState.HOST)
        assert transition_allowed(PortState.CHECKING, PortState.SWITCH_WHO)
        for state in PortState:
            if state is not PortState.DEAD:
                assert transition_allowed(state, PortState.DEAD)

    def test_figure8_monitor_arrows(self):
        assert transition_allowed(PortState.SWITCH_WHO, PortState.SWITCH_GOOD)
        assert transition_allowed(PortState.SWITCH_WHO, PortState.SWITCH_LOOP)
        assert transition_allowed(PortState.SWITCH_GOOD, PortState.SWITCH_WHO)
        assert transition_allowed(PortState.SWITCH_LOOP, PortState.SWITCH_WHO)

    def test_illegal_transitions(self):
        assert not transition_allowed(PortState.DEAD, PortState.HOST)
        assert not transition_allowed(PortState.DEAD, PortState.SWITCH_GOOD)
        assert not transition_allowed(PortState.HOST, PortState.SWITCH_WHO)
        assert not transition_allowed(PortState.SWITCH_GOOD, PortState.SWITCH_LOOP)
        assert not transition_allowed(PortState.SWITCH_LOOP, PortState.SWITCH_GOOD)

    def test_every_state_is_a_sampler_source(self):
        """Figure 8 is total: the sampler can take any state somewhere."""
        assert set(SAMPLER_TRANSITIONS) == set(PortState)

    def test_reconfiguring_transitions(self):
        assert (PortState.SWITCH_WHO, PortState.SWITCH_GOOD) in RECONFIGURING_TRANSITIONS
        assert (PortState.SWITCH_GOOD, PortState.SWITCH_WHO) in RECONFIGURING_TRANSITIONS
        assert (PortState.SWITCH_GOOD, PortState.DEAD) in RECONFIGURING_TRANSITIONS
        assert (PortState.CHECKING, PortState.HOST) not in RECONFIGURING_TRANSITIONS


class TestStatusSkeptic:
    def test_first_failure_keeps_minimum_hold(self):
        skeptic = StatusSkeptic(SkepticParams(min_hold_ns=200 * MS))
        skeptic.on_failure(0)
        assert skeptic.required_hold() == 200 * MS

    def test_repeated_failures_grow_hold(self):
        """Intermittent links are ignored for progressively longer periods
        (section 4.4)."""
        skeptic = StatusSkeptic(SkepticParams(min_hold_ns=200 * MS))
        holds = []
        for i in range(5):
            skeptic.on_failure(i)
            holds.append(skeptic.required_hold())
        assert holds == sorted(holds)
        assert holds[-1] > holds[0]

    def test_hold_capped(self):
        params = SkepticParams(min_hold_ns=200 * MS, max_hold_ns=1 * SEC)
        skeptic = StatusSkeptic(params)
        for i in range(20):
            skeptic.on_failure(i)
        assert skeptic.required_hold() == 1 * SEC

    def test_good_time_decays_hold(self):
        params = SkepticParams(min_hold_ns=200 * MS, decay_interval_ns=10 * SEC)
        skeptic = StatusSkeptic(params)
        for i in range(6):
            skeptic.on_failure(i)
        grown = skeptic.required_hold()
        skeptic.on_good_period_start(100 * SEC)
        skeptic.credit_good_time(140 * SEC)
        assert skeptic.required_hold() < grown

    def test_decay_floors_at_minimum(self):
        params = SkepticParams(min_hold_ns=200 * MS, decay_interval_ns=1 * SEC)
        skeptic = StatusSkeptic(params)
        skeptic.on_failure(0)
        skeptic.on_good_period_start(0)
        skeptic.credit_good_time(1000 * SEC)
        assert skeptic.required_hold() == 200 * MS


class TestConnectivitySkeptic:
    def test_base_requirement(self):
        skeptic = ConnectivitySkeptic(base_required=2)
        assert not skeptic.satisfied(1)
        assert skeptic.satisfied(2)

    def test_demotions_double_requirement(self):
        skeptic = ConnectivitySkeptic(base_required=2)
        skeptic.on_demotion(0)
        assert skeptic.required == 4
        skeptic.on_demotion(1)
        assert skeptic.required == 8

    def test_requirement_capped(self, monkeypatch):
        monkeypatch.setattr(skeptic_module, "CONN_MAX_REQUIRED", 16)
        skeptic = ConnectivitySkeptic(base_required=2)
        for i in range(10):
            skeptic.on_demotion(i)
        assert skeptic.required == 16

    def test_good_time_decays_requirement(self):
        skeptic = ConnectivitySkeptic(base_required=2)
        for i in range(4):
            skeptic.on_demotion(i)
        grown = skeptic.required
        skeptic.on_promoted(100 * SEC)
        skeptic.credit_good_time(200 * SEC)
        assert skeptic.required < grown
        skeptic.credit_good_time(10_000 * SEC)
        assert skeptic.required == 2
