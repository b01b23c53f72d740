"""The reconfiguration blackout: host packets are discarded while tables
are cleared to one-hop entries (section 6.6), and service resumes the
moment the new tables load."""

import pytest

from repro.constants import MS, SEC
from repro.host.localnet import LocalNet
from repro.host.workload import PeriodicSender, Sink
from repro.network import Network
from repro.topology import line


@pytest.fixture
def streaming_pair():
    net = Network(line(3))
    net.add_host("src", [(0, 9), (1, 9)])
    net.add_host("dst", [(2, 9), (1, 8)])
    ln_src = LocalNet(net.drivers["src"])
    ln_dst = LocalNet(net.drivers["dst"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    sink = Sink(ln_dst)
    PeriodicSender(ln_src, net.hosts["dst"].uid, data_bytes=500, period_ns=5 * MS)
    net.run_for(1 * SEC)
    assert sink.count > 100
    return net, sink


def test_host_packets_discarded_during_reconfiguration(streaming_pair):
    net, sink = streaming_pair
    # force an epoch; while tables hold only one-hop entries, the stream
    # (which crosses sw1) blacks out
    before = sink.count
    net.autopilots[1].trigger_reconfiguration("blackout-test")
    net.run_for(20 * MS)  # mid-reconfiguration
    during = sink.count - before
    assert during <= 10, "traffic kept flowing through cleared tables"

    # after the epoch completes the stream resumes without intervention
    assert net.run_until_converged(timeout_ns=60 * SEC)
    resumed_from = sink.count
    net.run_for(1 * SEC)
    assert sink.count - resumed_from > 100, "stream did not resume"


def test_blackout_is_brief(streaming_pair):
    """The paper's operational bar: 'Once reconfiguration time was
    reduced below 1 second we ceased receiving complaints.'"""
    net, sink = streaming_pair
    net.autopilots[1].trigger_reconfiguration("blackout-test")
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(2 * SEC)
    duration = net.epoch_duration()
    assert duration is not None and duration < 1 * SEC
