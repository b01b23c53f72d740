"""Regression: a switch restarted mid-reconfiguration must join the
*current* epoch, never revive the stale in-flight one.

Found by the chaos campaign: crash the root 80ms after a link cut
started a reconfiguration, restart it 10ms later, and (pre-fix) the
fresh Autopilot processed a retransmitted reconfiguration message from
the stale epoch on a port its monitoring had not yet classified.  With
zero good ports it started the epoch with an empty link set, was
vacuously stable, and self-configured as a bogus one-switch network --
transiently satisfying ``converged()`` because the views were mutually
consistent.  The fix gates reconfiguration messages on arrival-port
goodness (an epoch's link set is the s.switch.good ports, section
6.6.2), so the restarted switch waits for monitoring and joins whatever
epoch is then current.

The shrunk reproducer is also checked in as
``fixtures/restart_mid_reconfig.json`` and replayed by
``test_campaign.py``.
"""

from repro.analysis.invariants import quiescent_checks
from repro.constants import SEC
from repro.network import Network
from repro.topology import torus

MS = 1_000_000


def test_restarted_switch_joins_current_epoch_with_full_view():
    net = Network(torus(3, 4), seed=1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    in_flight = max(ap.epoch for ap in net.alive_autopilots()) + 1

    net.cut_link(2, 3)          # starts epoch `in_flight`
    net.run_for(80 * MS)        # mid-reconfiguration...
    net.crash_switch(0)         # ...crash the root (lowest UID)
    net.run_for(10 * MS)
    net.restart_switch(0)

    ap0 = net.autopilots[0]
    configs = []
    prev_hook = ap0.on_configured_hook

    def hook(epoch, topology):
        configs.append((epoch, len(topology.switches)))
        if prev_hook:
            prev_hook(epoch, topology)

    ap0.on_configured_hook = hook
    assert net.run_until_converged(timeout_ns=30 * SEC)
    net.run_for(2 * SEC)  # past any lingering port-state churn

    assert net.converged()
    assert configs, "the restarted switch never configured"
    # the bug: a first configuration at the stale in-flight epoch with a
    # 1-switch view.  Fixed: every configuration the restarted switch
    # ever adopts covers its full physical component (the 2-3 cut does
    # not partition a torus), at an epoch past the stale one.
    for epoch, view_size in configs:
        assert view_size == 12, configs
        assert epoch > in_flight, configs
    # the gate actually exercised: at least one stale reconfiguration
    # message arrived on a not-yet-good port and was dropped
    assert ap0.engine.msgs_gated >= 1


def test_stale_config_deadline_does_not_wipe_restarted_switch_table():
    """Second bug from the same campaign family: every engine arms a 5s
    configuration deadline at epoch start, and (pre-fix) a crash did not
    cancel it.  The halted engine's timer fired minutes later, called
    ``initiate`` -> ``_start_epoch`` -> ``clear_forwarding`` on the
    *shared* switch hardware, and silently wiped the forwarding table
    the restarted switch's new Autopilot had just loaded -- leaving a
    configured, converged network whose tables could not route.  Fixed:
    ``Autopilot.halt`` cancels all engine timers, and the timer
    callbacks refuse to run for a dead control processor.
    """
    net = Network(torus(3, 4), seed=1)
    assert net.run_until_converged(timeout_ns=60 * SEC)

    # cut a link, then walk forward until the epoch wave reaches switch
    # 0 and its engine has armed the deadline but not yet configured --
    # the exact window where a crash (pre-fix) left the timer live
    net.cut_link(2, 3)
    engine = net.autopilots[0].engine
    for _ in range(500):
        net.run_for(1 * MS)
        if engine._config_deadline is not None and not engine.configured:
            break
    assert engine._config_deadline is not None and not engine.configured

    net.crash_switch(0)
    net.run_for(10 * MS)
    net.restart_switch(0)
    assert net.run_until_converged(timeout_ns=30 * SEC)
    assert net.switches[0].table.non_constant_rows()
    epochs = sorted({ap.epoch for ap in net.alive_autopilots()})

    # wait out the pre-crash epoch's config deadline (5s default) with
    # margin: the dead engine must not touch the shared hardware, and
    # the settled network must not see any spurious reconfiguration
    net.run_for(7 * SEC)
    assert net.converged()
    assert sorted({ap.epoch for ap in net.alive_autopilots()}) == epochs
    assert net.switches[0].table.non_constant_rows()
    report = quiescent_checks(net)
    assert report.passed, report.violations
