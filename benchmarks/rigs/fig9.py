"""The broadcast-deadlock scenario of Figure 9 (experiment E3).

Five switches V, W, X, Y, Z and hosts A (on V), B (on W), C (on Z).
Spanning tree: V is the root with children W and X; Y hangs under W and Z
under X; Y--Z is a cross link.  Host B sends a long packet to C along the
legal route B-W-Y-Z-C while host A's broadcast floods down the tree.  The
broadcast holds Z-C; B's packet holds W-Y; the broadcast also needs W-Y;
when W's FIFO passes the stop threshold, V stops sending -- stalling the
X branch too -- and the fabric deadlocks.

The paper's fix is two-part (section 6.2/6.6.6): transmitters ignore
``stop`` for the rest of a broadcast packet, *and* the FIFO is enlarged
to 4096 bytes so a complete broadcast fits.  The scenario exposes both
knobs so the bench can show all three regimes: deadlock (1024-byte FIFO,
no fix), corruption (1024-byte FIFO with ignore-stop: the FIFO
overflows), and clean delivery (4096-byte FIFO with the fix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.routing import build_forwarding_entries
from repro.host.controller import HostController
from repro.net.link import connect
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.topology.generators import TopologySpec, expected_tree
from repro.types import Uid, make_short_address

#: switch indices in the spec
V, W, X, Y, Z = range(5)
#: host attachment ports
HOST_PORT = 9


@dataclass
class Fig9Scenario:
    """A constructed Figure 9 installation, ready to run."""

    sim: Simulator
    switches: List[Switch]
    host_a: HostController
    host_b: HostController
    host_c: HostController
    received_at_c: List[Packet] = field(default_factory=list)
    addr_c: int = 0

    def run(self, until_ns: int = 100_000_000) -> Dict[str, object]:
        """Run to quiescence and report what happened."""
        self.sim.run(until=until_ns)
        got_long = [p for p in self.received_at_c if not p.is_broadcast]
        got_bcast = [p for p in self.received_at_c if p.is_broadcast]
        overflowed = any(
            unit.overflow_drops or unit.fifo.overflowed
            for sw in self.switches
            for unit in sw.ports.values()
        )
        deadlocked = not got_long
        return {
            "unicast_delivered": bool(got_long),
            "unicast_corrupted": bool(got_long and got_long[0].corrupted),
            "broadcast_delivered": bool(got_bcast),
            "broadcast_corrupted": bool(got_bcast and got_bcast[0].corrupted),
            "fifo_overflow": overflowed,
            "deadlocked": deadlocked,
        }


def build_fig9(
    fifo_bytes: int = 1024,
    ignore_stop_in_broadcast: bool = False,
    long_packet_bytes: int = 60_000,
    broadcast_bytes: int = 1496,
    long_packet_delay_ns: int = 1_000,
) -> Fig9Scenario:
    """Construct the scenario and inject the two colliding packets.

    The A-V-X-Z and B-W-Y-Z pipelines are the same depth, so the broadcast
    leaves first (winning Z-C at switch Z) while B's long packet -- sent
    ``long_packet_delay_ns`` later -- still captures W-Y before the
    broadcast reaches switch W: exactly the interleaving of Figure 9.
    """
    sim = Simulator()
    uids = [Uid(v) for v in (0x10, 0x20, 0x30, 0x40, 0x50)]
    spec = TopologySpec(uids=uids, name="fig9")
    spec.cables = [
        (V, 1, W, 1),  # V-W (tree)
        (V, 2, X, 1),  # V-X (tree)
        (W, 2, Y, 1),  # W-Y (tree)
        (X, 2, Z, 1),  # X-Z (tree)
        (Y, 2, Z, 2),  # Y-Z (cross link)
    ]
    host_ports = {V: [HOST_PORT], W: [HOST_PORT], Z: [HOST_PORT]}
    topology = expected_tree(spec, host_ports=host_ports)

    switches = []
    for i, uid in enumerate(uids):
        switch = Switch(sim, name="VWXYZ"[i], uid=uid, fifo_bytes=fifo_bytes)
        switches.append(switch)
    for a, pa, b, pb in spec.cables:
        connect(sim, switches[a].ports[pa], switches[b].ports[pb], length_km=0.1)
    for switch, uid in zip(switches, uids):
        switch.load_table(build_forwarding_entries(topology, uid))
        for unit in switch.ports.values():
            unit.tx.ignore_stop_in_broadcast = ignore_stop_in_broadcast

    def attach_host(name: str, sw: int, uid_val: int) -> HostController:
        controller = HostController(sim, name=name, uid=Uid(uid_val))
        connect(sim, controller.ports[0], switches[sw].ports[HOST_PORT], length_km=0.1)
        controller.ports[0].tx.ignore_stop_in_broadcast = ignore_stop_in_broadcast
        return controller

    host_a = attach_host("A", V, 0xA0)
    host_b = attach_host("B", W, 0xB0)
    host_c = attach_host("C", Z, 0xC0)

    # the network is in steady operation when the collision happens: every
    # transmitter has a start directive latched (otherwise first
    # transmissions wait for the initial directive slot, scrambling the
    # interleaving Figure 9 depends on)
    from repro.net.flowcontrol import Directive

    for switch in switches:
        for unit in switch.ports.values():
            unit.fc_receiver.last = Directive.START
            unit.fc_receiver.transmission_allowed = True
    for controller in (host_a, host_b, host_c):
        for port in controller.ports:
            port.fc_receiver.last = Directive.START
            port.fc_receiver.transmission_allowed = True

    scenario = Fig9Scenario(
        sim=sim,
        switches=switches,
        host_a=host_a,
        host_b=host_b,
        host_c=host_c,
        addr_c=make_short_address(topology.numbers[uids[Z]], HOST_PORT),
    )
    host_c.on_receive = scenario.received_at_c.append

    addr_b = make_short_address(topology.numbers[uids[W]], HOST_PORT)
    host_a.send(
        Packet(
            dest_short=0x7FF,  # every host
            src_short=make_short_address(topology.numbers[uids[V]], HOST_PORT),
            ptype=PacketType.CLIENT,
            dest_uid=None,
            src_uid=host_a.uid,
            data_bytes=broadcast_bytes,
        )
    )
    sim.at(
        long_packet_delay_ns,
        lambda: host_b.send(
            Packet(
                dest_short=scenario.addr_c,
                src_short=addr_b,
                ptype=PacketType.CLIENT,
                dest_uid=host_c.uid,
                src_uid=host_b.uid,
                data_bytes=long_packet_bytes,
            )
        ),
    )
    return scenario
