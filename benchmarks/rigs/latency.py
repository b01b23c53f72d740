"""Switch transit latency and router throughput rigs (E4; §5.1, §6.4).

The paper: best-case transit latency is 26-32 clocks of 80 ns (2.08-2.56
microseconds) from first bit received to first bit forwarded, dominated
by the 25-byte cut-through window plus a router decision; and the router
schedules one forwarding request every 480 ns, bounding a switch at about
2 million packets per second.

``hop_latency`` measures end-to-end delivery through chains of k idle
switches; the incremental latency per added switch is the transit
latency.  ``router_throughput`` saturates one switch with minimal packets
from all 12 ports and measures the forwarding rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.routing import build_forwarding_entries
from repro.host.controller import HostController
from repro.net.link import connect
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.topology.generators import TopologySpec, expected_tree, line
from repro.types import Uid, make_short_address

HOST_PORT_SRC = 9
HOST_PORT_DST = 10


def _static_chain(sim: Simulator, k: int, link_km: float, cut_through_bytes=None):
    """A chain of k switches with statically loaded tables."""
    spec = line(k) if k > 1 else TopologySpec(uids=[Uid(0x1000)], name="single")
    host_ports = {0: [HOST_PORT_SRC], k - 1: [HOST_PORT_DST]}
    if k == 1:
        host_ports = {0: [HOST_PORT_SRC, HOST_PORT_DST]}
    topology = expected_tree(spec, host_ports=host_ports)
    switches = []
    for i, uid in enumerate(spec.uids):
        switch = Switch(sim, name=f"sw{i}", uid=uid,
                        cut_through_bytes=cut_through_bytes)
        switches.append(switch)
    for a, pa, b, pb in spec.cables:
        connect(sim, switches[a].ports[pa], switches[b].ports[pb], length_km=link_km)
    for switch, uid in zip(switches, spec.uids):
        switch.load_table(build_forwarding_entries(topology, uid))
    dest_addr = make_short_address(topology.numbers[spec.uids[k - 1]], HOST_PORT_DST)
    return switches, dest_addr


def hop_latency(
    k_switches: int,
    data_bytes: int = 12,
    link_km: float = 0.01,
    cut_through_bytes=None,
) -> int:
    """End-to-end latency (ns) of one packet through k idle switches.

    ``cut_through_bytes`` overrides the 25-byte cut-through window; pass
    a huge value to model store-and-forward switches (the §3.5 ablation).
    """
    sim = Simulator()
    switches, dest_addr = _static_chain(sim, k_switches, link_km, cut_through_bytes)
    src = HostController(sim, "src", Uid(0xA1))
    dst = HostController(sim, "dst", Uid(0xA2))
    connect(sim, src.ports[0], switches[0].ports[HOST_PORT_SRC], length_km=link_km)
    connect(sim, dst.ports[0], switches[-1].ports[HOST_PORT_DST], length_km=link_km)

    arrivals: List[int] = []
    dst.on_receive = lambda packet: arrivals.append(sim.now)
    sent_at = sim.now + 1000
    sim.at(
        sent_at,
        lambda: src.send(
            Packet(
                dest_short=dest_addr,
                src_short=0x11,
                ptype=PacketType.CLIENT,
                dest_uid=dst.uid,
                src_uid=src.uid,
                data_bytes=data_bytes,
            )
        ),
    )
    sim.run(until=sim.now + 100_000_000)
    if not arrivals:
        raise RuntimeError(f"packet not delivered through {k_switches} switches")
    return arrivals[0] - sent_at


@dataclass
class ThroughputResult:
    """Offered vs forwarded rate of the saturated-switch rig."""

    offered_pps: float
    forwarded_pps: float
    router_grants: int
    duration_ns: int


def router_throughput(
    duration_ns: int = 20_000_000, data_bytes: int = 12, n_streams: int = 12
) -> ThroughputResult:
    """Saturate one switch: hosts on all ports, each streaming minimal
    packets to a partner port; the 480 ns scheduling engine is the
    bottleneck (about 2 M packets/s)."""
    if not 2 <= n_streams <= 12 or n_streams % 2:
        raise ValueError("n_streams must be even, 2..12")
    sim = Simulator()
    spec = TopologySpec(uids=[Uid(0x1000)], name="single")
    ports = list(range(1, n_streams + 1))
    topology = expected_tree(spec, host_ports={0: ports})
    switch = Switch(sim, "sw0", spec.uids[0])
    switch.load_table(build_forwarding_entries(topology, spec.uids[0]))

    hosts = []
    received = [0]
    for port in ports:
        host = HostController(sim, f"h{port}", Uid(0xB00 + port))
        # effectively unlimited transmit buffering for the stream
        host.tx_buffer_bytes = 1 << 30
        connect(sim, host.ports[0], switch.ports[port], length_km=0.01)
        host.on_receive = lambda packet: received.__setitem__(0, received[0] + 1)
        hosts.append(host)

    wire = Packet(dest_short=0x10, src_short=0, data_bytes=data_bytes).wire_bytes
    per_stream = duration_ns // (wire * 80) + 2
    for i, host in enumerate(hosts):
        partner_port = ports[(i + 1) % n_streams]
        address = make_short_address(1, partner_port)
        for _ in range(int(per_stream)):
            host.send(
                Packet(
                    dest_short=address,
                    src_short=make_short_address(1, ports[i]),
                    ptype=PacketType.CLIENT,
                    dest_uid=Uid(0xB00 + partner_port),
                    src_uid=host.uid,
                    data_bytes=data_bytes,
                )
            )
    sim.run(until=duration_ns)
    offered = n_streams * 1e9 / (wire * 80)
    forwarded = received[0] * 1e9 / duration_ns
    return ThroughputResult(
        offered_pps=offered,
        forwarded_pps=forwarded,
        router_grants=switch.engine.grants,
        duration_ns=duration_ns,
    )
