"""Autopilot self-propagation (section 5.4) and the section 7 release
anecdote: rollouts reach every switch; slow propagation bounds disruption."""


from repro.constants import SEC
from repro.network import Network
from repro.topology import ring, torus


def test_release_reaches_every_switch():
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.release_autopilot_version(2, propagate_delay_ns=2 * SEC)
    net.run_for(60 * SEC)
    assert net.rollout_complete(2)
    assert all(ap.software_version == 2 for ap in net.autopilots)


def test_network_reconverges_after_rollout():
    net = Network(torus(2, 3))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.release_autopilot_version(2, propagate_delay_ns=2 * SEC)
    net.run_for(90 * SEC)
    assert net.rollout_complete(2)
    assert net.converged(), net.describe()
    assert len(net.topology().switches) == 6


def test_old_version_does_not_propagate_backwards():
    net = Network(ring(3))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.release_autopilot_version(3, propagate_delay_ns=1 * SEC)
    net.run_for(30 * SEC)
    assert net.rollout_complete(3)
    # offering an older image changes nothing
    net.release_autopilot_version(2)
    net.run_for(10 * SEC)
    assert all(ap.software_version == 3 for ap in net.autopilots)


def test_rollout_causes_reconfiguration_cascade():
    """Each switch reboots into the new version, so a release sweeps a
    wave of reconfigurations across the network (the section 7
    complaint-generator)."""
    net = Network(ring(4))
    assert net.run_until_converged(timeout_ns=60 * SEC)
    epoch_before = net.current_epoch()
    net.release_autopilot_version(2, propagate_delay_ns=2 * SEC)
    net.run_for(60 * SEC)
    assert net.rollout_complete(2)
    # at least one reconfiguration per rebooted switch
    assert net.current_epoch() - epoch_before >= 4
