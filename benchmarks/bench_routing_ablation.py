"""E11 -- Up*/down* vs tree-only vs unrestricted shortest-path routing
(sections 3.6, 4.2, 6.6.4).

Paper: up*/down* guarantees the absence of deadlocks *while still
allowing all links to be used*.  A spanning-tree-only routing (as 802.1
bridges use) is also deadlock-free but wastes every cross link and
funnels traffic through the root; unrestricted shortest-path routing uses
all links but its channel-dependency graph has cycles, i.e. it can
deadlock under Autonet's no-discard flow control.

Measured here: (a) static analysis -- dependency cycles and link usage
for the three routings on the 3x4 torus; (b) dynamic -- a cyclic traffic
pattern on a 6-ring that realizes an actual deadlock under shortest-path
routing and completes under up*/down*.
"""

from itertools import islice

import networkx as nx
import pytest

from benchmarks.bench_util import report
from repro.analysis.invariants import channel_dependency_graph, is_acyclic, links_used
from benchmarks.rigs.routing_ablation import (
    build_shortest_path_entries,
    tree_only_topology,
)
from repro.core.routing import build_forwarding_entries
from repro.host.controller import HostController
from repro.net.link import connect
from repro.net.packet import Packet, PacketType
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.topology import expected_tree, ring, torus
from repro.types import Uid, make_short_address

HOST_PORT = 9


def static_rows():
    spec = torus(3, 4)
    topo = expected_tree(spec)
    tree = tree_only_topology(topo)

    routings = {
        "up*/down* (paper)": (
            topo, {uid: build_forwarding_entries(topo, uid) for uid in topo.switches}
        ),
        "spanning tree only": (
            tree, {uid: build_forwarding_entries(tree, uid) for uid in tree.switches}
        ),
        "shortest path, unrestricted": (
            topo, {uid: build_shortest_path_entries(topo, uid) for uid in topo.switches}
        ),
    }
    rows = []
    for name, (t, entries) in routings.items():
        graph = channel_dependency_graph(topo, entries)
        # elementary cycles, counted up to a cap: the unrestricted routing has far more
        cycles = 0 if is_acyclic(graph) else len(
            list(islice(nx.simple_cycles(nx.DiGraph(graph)), 1000))
        )
        used = len(links_used(topo, entries))
        rows.append((name, used, len(topo.links), cycles))
    return rows


def dynamic_deadlock(routing: str):
    """Six switches in a ring, each host streaming a long packet two hops
    clockwise: a classic cyclic-wait pattern under wormhole backpressure."""
    sim = Simulator()
    spec = ring(6)
    host_ports = {i: [HOST_PORT] for i in range(6)}
    topo = expected_tree(spec, host_ports=host_ports)
    switches = []
    for i, uid in enumerate(spec.uids):
        switches.append(Switch(sim, f"sw{i}", uid, fifo_bytes=1024))
    for a, pa, b, pb in spec.cables:
        connect(sim, switches[a].ports[pa], switches[b].ports[pb], length_km=0.1)
    for switch, uid in zip(switches, spec.uids):
        if routing == "updown":
            switch.load_table(build_forwarding_entries(topo, uid))
        else:
            switch.load_table(build_shortest_path_entries(topo, uid))

    hosts = []
    received = []
    from repro.net.flowcontrol import Directive

    for i in range(6):
        host = HostController(sim, f"h{i}", Uid(0xA00 + i))
        connect(sim, host.ports[0], switches[i].ports[HOST_PORT], length_km=0.1)
        host.on_receive = lambda p, i=i: received.append(i)
        hosts.append(host)
    for switch in switches:
        for unit in switch.ports.values():
            unit.fc_receiver.last = Directive.START
            unit.fc_receiver.transmission_allowed = True
    for host in hosts:
        for port in host.ports:
            port.fc_receiver.last = Directive.START
            port.fc_receiver.transmission_allowed = True

    for i, host in enumerate(hosts):
        dest = (i + 2) % 6
        host.send(
            Packet(
                dest_short=make_short_address(topo.numbers[spec.uids[dest]], HOST_PORT),
                src_short=make_short_address(topo.numbers[spec.uids[i]], HOST_PORT),
                ptype=PacketType.CLIENT,
                dest_uid=hosts[dest].uid,
                src_uid=host.uid,
                data_bytes=30_000,
            )
        )
    sim.run(until=200_000_000)
    return len(received)


@pytest.mark.benchmark(group="E11")
def test_static_analysis(benchmark):
    rows = benchmark.pedantic(static_rows, rounds=1, iterations=1)
    report(
        "E11_static",
        "E11: routing ablation on the 3x4 torus (static analysis)",
        ["routing", "links used", "links total", "dependency cycles"],
        rows,
        notes=(
            "paper: up*/down* is deadlock-free AND uses all links; tree-only\n"
            "wastes cross links; unrestricted shortest-path admits deadlock"
        ),
    )
    results = {name: (used, total, cycles) for name, used, total, cycles in rows}
    used, total, cycles = results["up*/down* (paper)"]
    assert used == total and cycles == 0
    used, total, cycles = results["spanning tree only"]
    assert used < total and cycles == 0
    used, total, cycles = results["shortest path, unrestricted"]
    assert used == total and cycles > 0


@pytest.mark.benchmark(group="E11")
def test_dynamic_deadlock(benchmark):
    def run():
        return dynamic_deadlock("updown"), dynamic_deadlock("shortest")

    updown, shortest = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E11_dynamic",
        "E11: cyclic traffic on a 6-ring (6 long packets, 2 hops clockwise)",
        ["routing", "packets delivered (of 6)", "outcome"],
        [
            ["up*/down* (paper)", updown, "completes"],
            ["shortest path, unrestricted", shortest,
             "deadlocks" if shortest < 6 else "completed"],
        ],
    )
    assert updown == 6
    assert shortest < 6, "expected a realized deadlock under cyclic shortest-path"
