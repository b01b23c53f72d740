"""Traffic generators: sinks, periodic senders, RPC clients/servers."""

import pytest

from repro.constants import MS, SEC
from repro.host.localnet import LocalNet
from repro.host.workload import PeriodicSender, RpcClient, RpcServer, Sink
from repro.network import Network
from repro.topology import line


@pytest.fixture
def rig():
    net = Network(line(2))
    net.add_host("a", [(0, 5), (1, 5)])
    net.add_host("b", [(1, 6), (0, 6)])
    ln_a = LocalNet(net.drivers["a"])
    ln_b = LocalNet(net.drivers["b"])
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    return net, ln_a, ln_b


class TestSinkAndSender:
    def test_periodic_sender_counts(self, rig):
        net, ln_a, ln_b = rig
        sink = Sink(ln_b)
        sender = PeriodicSender(ln_a, net.hosts["b"].uid, 500, period_ns=10 * MS, count=20)
        net.run_for(1 * SEC)
        assert sender.attempted == 20
        assert sender.accepted == 20
        assert sink.count == 20
        assert sink.bytes == 20 * 500

    def test_sink_latency_measured(self, rig):
        net, ln_a, ln_b = rig
        sink = Sink(ln_b)
        PeriodicSender(ln_a, net.hosts["b"].uid, 500, period_ns=10 * MS, count=5)
        net.run_for(1 * SEC)
        assert sink.mean_latency_ns() > 0
        assert sink.bytes == 5 * 500

    def test_sender_stop(self, rig):
        net, ln_a, ln_b = rig
        sink = Sink(ln_b)
        sender = PeriodicSender(ln_a, net.hosts["b"].uid, 500, period_ns=50 * MS)
        net.run_for(200 * MS)
        sender.stop()
        count = sink.count
        net.run_for(1 * SEC)
        assert sink.count <= count + 1  # at most one in-flight straggler


class TestRpc:
    def test_closed_loop(self, rig):
        net, ln_a, ln_b = rig
        RpcServer(ln_b)
        client = RpcClient(ln_a, net.hosts["b"].uid, think_ns=5 * MS)
        net.run_for(2 * SEC)
        assert client.completed > 100
        assert client.timeouts == 0
        assert all(lat > 0 for lat in client.latencies_ns[:10])

    def test_timeouts_counted_when_server_gone(self, rig):
        net, ln_a, ln_b = rig
        # no server installed on b
        client = RpcClient(ln_a, net.hosts["b"].uid, timeout_ns=100 * MS)
        net.run_for(1 * SEC)
        assert client.completed == 0
        assert client.timeouts >= 8

    def test_longest_gap(self, rig):
        net, ln_a, ln_b = rig
        RpcServer(ln_b)
        client = RpcClient(ln_a, net.hosts["b"].uid, think_ns=5 * MS)
        net.run_for(1 * SEC)
        client.stop()
        net.run_for(2 * SEC)
        assert client.longest_gap_ns() < 1 * SEC

    def test_latency_reflects_network(self, rig):
        net, ln_a, ln_b = rig
        RpcServer(ln_b)
        client = RpcClient(ln_a, net.hosts["b"].uid, think_ns=10 * MS)
        client.request_bytes = client.response_bytes = 64
        net.run_for(1 * SEC)
        # request + response each cross two switches: tens of microseconds
        mean = sum(client.latencies_ns) / len(client.latencies_ns)
        assert 5_000 < mean < 1_000_000
