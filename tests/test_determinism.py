"""Runs are bit-for-bit reproducible for a fixed seed.

Everything stochastic draws from named, seeded streams, and no wall-clock
or salted-hash values leak into the simulation, so two identical builds
of the same network produce identical histories -- the property that
makes the benchmark numbers in EXPERIMENTS.md exactly regenerable.
"""

from repro.constants import SEC
from repro.network import Network
from repro.topology import torus
from tests.checkers import trace_digest


def run_once(seed):
    net = Network(torus(2, 3), seed=seed)
    net.add_host("h0", [(0, 9), (1, 9)])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(1 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    return net.current_epoch(), net.epoch_duration(), net.sim.now, trace_digest(net)


def test_identical_seeds_identical_histories():
    first = run_once(seed=42)
    second = run_once(seed=42)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[3] == second[3], "event histories diverged"


def test_different_seeds_differ_only_in_clock_offsets():
    """The seed currently feeds only the per-switch clock offsets, so the
    *protocol outcome* (epochs, durations) is seed-independent even though
    logged local timestamps differ."""
    a = run_once(seed=1)
    b = run_once(seed=2)
    assert a[0] == b[0]
    assert a[1] == b[1]
