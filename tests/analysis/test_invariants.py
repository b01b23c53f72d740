"""Seeded violations: each quiescent check reports the defect it exists for.

The routing tests plant one defect in the loaded tables of a converged
network and require ``check_partition_routing`` to report it with the
message the per-key reference sweep (``tests/naive_routing.py``) produces
-- also when the bad key is the *second* key of a row class the sweep
otherwise visits once.  The network tests catch a converged installation
the instant its cabling changes, or mid-epoch, and require the oracle
and span checks to name what is wrong.
"""

import pytest

from repro.analysis.invariants import (
    check_oracle_agreement,
    check_partition_routing,
    check_spans,
    quiescent_checks,
)
from repro.constants import CONTROL_PROCESSOR_PORT, PORTS_PER_SWITCH, SEC
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry
from repro.network import Network
from repro.topology import line, resolve_topology
from repro.types import make_short_address
from tests import naive_routing as naive


def converged(spec):
    net = Network(spec, seed=1)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    assert check_partition_routing(net).passed
    return net


@pytest.fixture(scope="module", params=["torus-3x4", "src-lan-30"])
def net(request):
    return converged(resolve_topology(request.param))


class Planted:
    """Table edits on one network, undone on exit (the fixture is shared)."""

    def __init__(self, net):
        self.net = net
        self.topology = net.autopilots[0].engine.topology
        members = self.topology.switches
        self.label = f"partition[{min(members)}]({len(members)} switches)"
        self._undo = []

    def table(self, uid):
        return self.net.switches[self.net.spec.uids.index(uid)].table

    def set(self, uid, in_port, address, entry):
        table = self.table(uid)
        self._undo.append((table, in_port, address, table.lookup(in_port, address)))
        table.set_entry(in_port, address, entry)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for table, in_port, address, entry in reversed(self._undo):
            table.set_entry(in_port, address, entry)


def a_down_end(topology):
    """(uid, port) of some switch port that is its link's down end."""
    index = topology.index()
    return next(
        (uid, port)
        for uid in sorted(topology.switches)
        for port in sorted(index.nbrs[uid])
        if not index.up_end[(uid, port)]
    )


@pytest.mark.parametrize("position", [0, 1], ids=["first-key", "second-key"])
def test_descended_packet_forwarded_up_is_reported(net, position):
    with Planted(net) as planted:
        uid, down_port = a_down_end(planted.topology)
        entries = naive.cells(planted.table(uid).non_constant_rows())
        # the keys of one row class: same receiving port, same port vector
        first = next(key for key in entries if key[0] == down_port)
        row = [
            key
            for key, entry in entries.items()
            if key[0] == down_port and entry.ports == entries[first].ports
        ]
        in_port, address = row[position]
        planted.set(uid, in_port, address, ForwardingEntry((down_port,)))

        violations = check_partition_routing(net).violations
        with pytest.raises(AssertionError) as reference:
            naive.check_no_down_to_up(
                planted.topology, {uid: naive.cells(planted.table(uid).non_constant_rows())}
            )
    message = f"{planted.label}: up/down rule violated: {reference.value}"
    assert message in violations
    assert f"(in={in_port}, addr={address:#x})" in message
    assert f"up via port {down_port}" in message


def test_black_holed_destination_is_reported(net):
    with Planted(net) as planted:
        topology = planted.topology
        uids = sorted(topology.switches)
        at, victim = uids[1], uids[-1]
        address = make_short_address(topology.numbers[victim], CONTROL_PROCESSOR_PORT)
        for in_port in range(PORTS_PER_SWITCH + 1):
            planted.set(at, in_port, address, DISCARD_ENTRY)

        violations = check_partition_routing(net).violations
        entries = naive.cells_by_uid(
            {uid: planted.table(uid).non_constant_rows() for uid in topology.switches}
        )
        unreachable = sorted(
            f"{src}->{victim}"
            for src in topology.switches
            if (victim, CONTROL_PROCESSOR_PORT)
            not in naive.trace_delivery(topology, entries, src, CONTROL_PROCESSOR_PORT, address)
        )
    assert f"{at}->{victim}" in unreachable
    assert violations == [
        f"{planted.label}: {len(unreachable)} unreachable pairs, e.g. {unreachable[:3]}"
    ]


@pytest.mark.parametrize("position", [0, 1], ids=["first-key", "second-key"])
def test_ping_pong_pair_is_reported_as_a_dependency_cycle(net, position):
    with Planted(net) as planted:
        topology = planted.topology
        uid, port = a_down_end(topology)
        far = topology.neighbors(uid)[port]
        # an address whose rows at both ends are ordinary deduplicated ones
        others = sorted(set(topology.switches) - {uid, far.uid})
        address = make_short_address(topology.numbers[others[0]], position)
        planted.set(uid, port, address, ForwardingEntry((port,)))
        planted.set(far.uid, far.port, address, ForwardingEntry((far.port,)))

        violations = check_partition_routing(net).violations
        entries = naive.cells_by_uid(
            {u: planted.table(u).non_constant_rows() for u in topology.switches}
        )
        assert naive.has_cycle(topology, entries)
    assert f"{planted.label}: channel dependency graph has a cycle" in violations


def test_forwarding_loop_on_two_switches_is_a_dependency_cycle_not_a_hang():
    """The table walk expands each state once, so it cannot see (or be
    trapped by) a loop: loops belong to the deadlock-freedom check."""
    net = converged(line(2))
    with Planted(net) as planted:
        topology = planted.topology
        a, b = sorted(topology.switches)
        ((port_a, end_b),) = topology.neighbors(a).items()
        address = make_short_address(topology.numbers[b], CONTROL_PROCESSOR_PORT)
        # a sends b's packets out; b bounces them; a bounces them back
        planted.set(b, end_b.port, address, ForwardingEntry((end_b.port,)))
        planted.set(a, port_a, address, ForwardingEntry((port_a,)))
        violations = check_partition_routing(net).violations
    assert f"{planted.label}: channel dependency graph has a cycle" in violations
    assert f"{planted.label}: 1 unreachable pairs, e.g. ['{a}->{b}']" in violations


# -- the network checks: oracle agreement and span hygiene --------------------------


def oracle_message(net, index, view, component):
    """``check_oracle_agreement``'s words for sw``index``, whose view holds
    switches ``view`` where its physical component holds ``component``."""
    uids = net.spec.uids
    missing = sorted(str(uids[i]) for i in set(component) - set(view))
    extra = sorted(str(uids[i]) for i in set(view) - set(component))
    return (
        f"sw{index}: view of {len(view)} switches != physical component "
        f"of {len(component)} (missing={missing}, extra={extra})"
    )


def test_a_view_naming_a_switch_outside_its_component_is_reported():
    """Cut a converged line the instant before anyone notices: every view
    still names all three switches, and the partition holds fewer."""
    net = converged(line(3))
    net.cut_link(1, 2)
    assert check_oracle_agreement(net).violations == [
        oracle_message(net, 0, view=[0, 1, 2], component=[0, 1]),
        oracle_message(net, 1, view=[0, 1, 2], component=[0, 1]),
        oracle_message(net, 2, view=[0, 1, 2], component=[2]),
    ]


def test_a_view_missing_a_switch_of_its_component_is_reported():
    """Rejoin a converged partition the instant before anyone notices:
    each side's view lacks the other side's switches."""
    net = converged(line(3))
    net.cut_link(1, 2)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    assert quiescent_checks(net).passed
    net.restore_link(1, 2)
    assert check_oracle_agreement(net).violations == [
        oracle_message(net, 0, view=[0, 1], component=[0, 1, 2]),
        oracle_message(net, 1, view=[0, 1], component=[0, 1, 2]),
        oracle_message(net, 2, view=[2], component=[0, 1, 2]),
    ]


def test_a_cut_caught_mid_epoch_leaves_its_span_open_and_its_switches_unconfigured():
    net = converged(line(3))
    net.cut_link(1, 2)
    while all(ap.engine.configured for ap in net.autopilots):
        net.sim.run_for(SEC // 1000)
    epoch = net.current_epoch()
    unconfigured = [i for i, ap in enumerate(net.autopilots) if not ap.configured]
    assert unconfigured
    assert check_spans(net).violations == [
        f"reconfiguration span for current epoch {epoch} never closed"
    ]
    assert check_oracle_agreement(net).violations == [
        f"sw{i}: not configured at quiescence" for i in unconfigured
    ]
