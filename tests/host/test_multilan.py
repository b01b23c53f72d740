"""The generic multi-LAN interface of section 5.6 (Figure 4): hosts on
both networks, switchable mid-conversation."""

import pytest

from repro.host.ethernet import Ethernet
from repro.constants import MS, SEC
from repro.host.localnet import LocalNet
from repro.network import Network
from repro.topology import line
from tests.host.multilan import MultiLan


@pytest.fixture
def dual_attached():
    """Two hosts, each attached to an Autonet AND a shared Ethernet --
    the SRC shake-down configuration of section 5.5."""
    net = Network(line(2))
    ether = Ethernet(net.sim)
    hosts = {}
    for i, (sw_a, sw_b) in enumerate(((0, 1), (1, 0))):
        name = f"h{i}"
        port = 5 + i  # distinct switch ports per host
        controller = net.add_host(name, [(sw_a, port), (sw_b, port)])
        multi = MultiLan(LocalNet(net.drivers[name]), ether.attach(controller.uid, name))
        hosts[name] = (multi, 0, 1, controller.uid)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    return net, hosts


def test_send_via_each_network(dual_attached):
    net, hosts = dual_attached
    h0, a0, e0, uid0 = hosts["h0"]
    h1, a1, e1, uid1 = hosts["h1"]
    got = []
    h1.on_receive = lambda nid, src, size, payload: got.append((nid, size))

    assert h0.send(a0, uid1, 500)
    net.run_for(1 * SEC)
    assert h0.send(e0, uid1, 700)
    net.run_for(1 * SEC)
    assert [(n == a1, s) for n, s in got] == [(True, 500), (False, 700)]


def test_disabled_network_delivers_nothing(dual_attached):
    net, hosts = dual_attached
    h0, a0, e0, uid0 = hosts["h0"]
    h1, a1, e1, uid1 = hosts["h1"]
    got = []
    h1.on_receive = lambda nid, src, size, payload: got.append(nid)
    h1.set_state(a1, False)
    h0.send(a0, uid1, 300)
    net.run_for(1 * SEC)
    assert got == []
    h1.set_state(a1, True)
    h0.send(a0, uid1, 300)
    net.run_for(1 * SEC)
    assert got == [a1]


def test_disabled_network_refuses_sends(dual_attached):
    net, hosts = dual_attached
    h0, a0, e0, uid0 = hosts["h0"]
    h0.set_state(a0, False)
    assert not h0.send(a0, hosts["h1"][3], 100)


def test_switch_networks_mid_conversation(dual_attached):
    """Section 5.5: switching from one network to the other can be done
    in the middle of an RPC call without disrupting higher software."""
    net, hosts = dual_attached
    h0, a0, e0, uid0 = hosts["h0"]
    h1, a1, e1, uid1 = hosts["h1"]

    # a simple request/response loop riding whatever network h0 chooses
    active = {"net": a0}
    completed = []

    def serve(nid, src, size, payload):
        if payload == "request":
            # reply on the network the request arrived on
            h1.send(nid, uid0, 64, payload="response")

    def client_rx(nid, src, size, payload):
        if payload == "response":
            completed.append(nid)
            h0.send(active["net"], uid1, 64, payload="request")

    h1.on_receive = serve
    h0.on_receive = client_rx
    h0.send(active["net"], uid1, 64, payload="request")
    # the assertions need one completion per leg, not seconds of ping-pong
    net.run_for(200 * MS)
    over_autonet = len(completed)
    assert over_autonet > 0

    active["net"] = e0  # flip to the Ethernet mid-stream
    net.run_for(200 * MS)
    assert len(completed) > over_autonet, "conversation died on switchover"
    # tail completions rode the Ethernet
    assert completed[-1] == hosts["h0"][2]


def test_autonet_faster_than_ethernet_for_bulk(dual_attached):
    """The 100 Mbit/s Autonet moves bulk data ~10x faster (section 1)."""
    net, hosts = dual_attached
    h0, a0, e0, uid0 = hosts["h0"]
    h1, a1, e1, uid1 = hosts["h1"]
    counts = {a1: 0, e1: 0}
    h1.on_receive = lambda nid, src, size, payload: counts.__setitem__(
        nid, counts[nid] + 1
    )

    def time_to_deliver(nid_tx, nid_rx, n=60):
        accepted = sum(1 for _ in range(n) if h0.send(nid_tx, uid1, 1400))
        assert accepted == n, "transmit buffer too small for the burst"
        start = net.sim.now
        while counts[nid_rx] < n and net.sim.now - start < 5 * SEC:
            net.run_for(5 * MS)
        return net.sim.now - start

    autonet_time = time_to_deliver(a0, a1)
    ethernet_time = time_to_deliver(e0, e1)
    assert ethernet_time > 3 * autonet_time
