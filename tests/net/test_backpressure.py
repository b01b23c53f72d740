"""Flow-control backpressure (sections 3.5, 6.2): congestion backs up
through the network instead of dropping packets."""


from repro.constants import SEC
from repro.core.routing import build_forwarding_entries
from repro.host.controller import HostController
from repro.net.flowcontrol import Directive
from repro.net.link import connect
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.topology.generators import expected_tree, line
from repro.types import Uid, make_short_address


def build_convergence_rig():
    """Two senders on sw0 converge on one receiver behind sw0->sw1."""
    sim = Simulator()
    spec = line(2)
    host_ports = {0: [8, 9], 1: [9]}
    topology = expected_tree(spec, host_ports=host_ports)
    switches = [Switch(sim, f"sw{i}", uid) for i, uid in enumerate(spec.uids)]
    for a, pa, b, pb in spec.cables:
        connect(sim, switches[a].ports[pa], switches[b].ports[pb], length_km=0.1)
    for switch, uid in zip(switches, spec.uids):
        switch.load_table(build_forwarding_entries(topology, uid))

    hosts = {}
    for name, (sw, port) in {"x": (0, 8), "y": (0, 9), "c": (1, 9)}.items():
        host = HostController(sim, name, Uid(0xC00 + port + sw * 16))
        host.tx_buffer_bytes = 1 << 30
        connect(sim, host.ports[0], switches[sw].ports[port], length_km=0.1)
        hosts[name] = host
    dest = make_short_address(topology.numbers[spec.uids[1]], 9)
    return sim, switches, hosts, dest


def test_no_packets_lost_under_2x_overload():
    """Two full-rate senders share one link: everything is delayed, not
    discarded (except at the overloaded hosts' own buffers)."""
    sim, switches, hosts, dest = build_convergence_rig()
    got = []
    hosts["c"].on_receive = lambda p: got.append(p.packet_id)
    sim.run_for(1_000_000)  # directives settle
    sent = 0
    for name in ("x", "y"):
        for _ in range(30):
            hosts[name].send(
                Packet(dest_short=dest, src_short=0, ptype=PacketType.CLIENT,
                       dest_uid=hosts["c"].uid, src_uid=hosts[name].uid,
                       data_bytes=4000, packet_id=sim.new_packet_id())
            )
            sent += 1
    sim.run_for(2 * SEC)
    assert len(got) == sent, "switches must not discard under congestion"
    assert len(set(got)) == sent
    assert all(s.packets_discarded == 0 for s in switches)


def test_stop_directives_propagate_upstream():
    """The shared output link saturates; sw0's input FIFOs fill and stop
    flows back to the sending hosts (the ABCD cascade of section 6.2)."""
    sim, switches, hosts, dest = build_convergence_rig()
    sim.run_for(1_000_000)
    for name in ("x", "y"):
        for _ in range(40):
            hosts[name].send(
                Packet(dest_short=dest, src_short=0, ptype=PacketType.CLIENT,
                       dest_uid=hosts["c"].uid, src_uid=hosts[name].uid,
                       data_bytes=4000)
            )
    # run a little: the 2x overload must have stopped at least one sender
    sim.run_for(20_000_000)
    stopped = [
        name for name in ("x", "y")
        if hosts[name].ports[0].fc_receiver.last is Directive.STOP
    ]
    assert stopped, "no backpressure reached the hosts"


def test_hosts_never_send_stop():
    """Section 6.2: a slow host cannot push congestion into the network;
    its controller discards when its buffers fill."""
    sim, switches, hosts, dest = build_convergence_rig()
    receiver = hosts["c"]
    receiver.rx_buffer_bytes = 10_000
    receiver.rx_processing_ns = int(1 * SEC)  # pathologically slow host
    sim.run_for(1_000_000)
    for _ in range(40):
        hosts["x"].send(
            Packet(dest_short=dest, src_short=0, ptype=PacketType.CLIENT,
                   dest_uid=receiver.uid, src_uid=hosts["x"].uid,
                   data_bytes=4000)
        )
    sim.run_for(2 * SEC)
    # the slow host dropped packets rather than stopping the switch
    assert receiver.packets_dropped_rx > 0
    switch_port = switches[1].ports[9]
    assert switch_port.fc_receiver.last is not Directive.STOP
