"""The 10 Mbit/s shared-medium Ethernet the section 6.8 bridge attaches to."""

import pytest

from repro.constants import MS, SEC
from repro.host.ethernet import ETHERNET_BROADCAST, Ethernet
from repro.sim.engine import Simulator
from repro.types import Uid


class TestEthernet:
    def test_unicast_delivery(self):
        sim = Simulator()
        ether = Ethernet(sim)
        a = ether.attach(Uid(1))
        b = ether.attach(Uid(2))
        got = []
        b.on_receive = lambda src, dst, size, payload: got.append((src, size))
        a.send(Uid(2), 1000)
        sim.run(until=10 * MS)
        assert got == [(Uid(1), 1000)]

    def test_broadcast_reaches_all_but_sender(self):
        sim = Simulator()
        ether = Ethernet(sim)
        stations = [ether.attach(Uid(i)) for i in range(1, 5)]
        got = []
        for s in stations:
            s.on_receive = lambda src, dst, size, payload, s=s: got.append(s.uid)
        stations[0].send(ETHERNET_BROADCAST, 100)
        sim.run(until=10 * MS)
        assert sorted(got) == [Uid(2), Uid(3), Uid(4)]

    def test_aggregate_capped_at_link_bandwidth(self):
        """The motivating bottleneck: total throughput <= 10 Mbit/s."""
        sim = Simulator()
        ether = Ethernet(sim, max_queue=10_000)
        a, b = ether.attach(Uid(1)), ether.attach(Uid(2))
        c, d = ether.attach(Uid(3)), ether.attach(Uid(4))
        for _ in range(2000):
            a.send(Uid(2), 1400)
            c.send(Uid(4), 1400)
        sim.run(until=1 * SEC)
        mbps = ether.bytes_carried * 8 / 1e9 * 1e3  # bits per ns -> Mbit/s
        assert mbps <= 10.0
        assert mbps > 8.0  # efficiently utilized, just bounded

    def test_frame_size_limit(self):
        sim = Simulator()
        ether = Ethernet(sim)
        a = ether.attach(Uid(1))
        with pytest.raises(ValueError):
            a.send(Uid(2), 3000)
