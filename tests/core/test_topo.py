"""Topology descriptions: links, merging, releveling, children lookup."""

import pytest

from repro.core.topo import (
    NetLink,
    PortRef,
    SwitchRecord,
    TopologyMap,
    merge_reports,
    relevel,
)
from repro.topology import expected_tree, ring, torus
from repro.types import Uid


def test_netlink_canonical_order():
    a = NetLink(PortRef(Uid(2), 1), PortRef(Uid(1), 3))
    b = NetLink(PortRef(Uid(1), 3), PortRef(Uid(2), 1))
    assert a == b
    assert a.a.uid == Uid(1)


def test_netlink_endpoint_lookup():
    link = NetLink(PortRef(Uid(1), 3), PortRef(Uid(2), 1))
    assert link.endpoint_at(Uid(2)).port == 1
    assert link.other_end(Uid(1)).uid == Uid(2)
    with pytest.raises(ValueError):
        link.endpoint_at(Uid(9))


def test_loop_detection():
    assert NetLink(PortRef(Uid(1), 3), PortRef(Uid(1), 5)).is_loop
    assert not NetLink(PortRef(Uid(1), 3), PortRef(Uid(2), 5)).is_loop


def test_neighbors_excludes_loops():
    topo = TopologyMap(
        root=Uid(1),
        switches={
            Uid(1): SwitchRecord(Uid(1), 0, None, None),
        },
        links={NetLink(PortRef(Uid(1), 3), PortRef(Uid(1), 5))},
    )
    assert topo.neighbors(Uid(1)) == {}


def test_children_ports():
    topo = expected_tree(ring(4))
    root = topo.root
    children = topo.children_ports(root)
    # the root of a 4-ring has exactly two children
    assert len(children) == 2


def test_validate_accepts_good_tree():
    expected_tree(torus(3, 4)).validate()


def test_validate_rejects_bad_parent():
    topo = expected_tree(ring(3))
    bad_uid = [u for u in topo.switches if u != topo.root][0]
    record = topo.switches[bad_uid]
    object.__setattr__(record, "parent_uid", Uid(0xDEAD))
    with pytest.raises(ValueError):
        topo.validate()


def test_merge_reports_combines_subtrees():
    child_map = TopologyMap(
        root=Uid(1),
        switches={Uid(2): SwitchRecord(Uid(2), 1, 1, Uid(1))},
        links={NetLink(PortRef(Uid(1), 2), PortRef(Uid(2), 1))},
    )
    own = SwitchRecord(Uid(1), 0, None, None)
    merged = merge_reports(
        Uid(1), own, [NetLink(PortRef(Uid(1), 2), PortRef(Uid(2), 1))], [child_map]
    )
    assert set(merged.switches) == {Uid(1), Uid(2)}
    assert len(merged.links) == 1


def test_relevel_fixes_levels():
    topo = TopologyMap(
        root=Uid(1),
        switches={
            Uid(1): SwitchRecord(Uid(1), 0, None, None),
            Uid(2): SwitchRecord(Uid(2), 99, 1, Uid(1)),
            Uid(3): SwitchRecord(Uid(3), 99, 1, Uid(2)),
        },
        links=set(),
    )
    fixed = relevel(topo)
    assert fixed.switches[Uid(2)].level == 1
    assert fixed.switches[Uid(3)].level == 2


def test_encoded_bytes_grows_with_size():
    small = expected_tree(ring(3))
    large = expected_tree(torus(4, 4))
    assert large.encoded_bytes() > small.encoded_bytes()
