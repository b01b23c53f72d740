"""Topology and spanning-tree descriptions exchanged during reconfiguration.

During step 2 of reconfiguration (section 6.6), a description of the
available physical topology and spanning tree accumulates up the tree to
the root; in step 4 the complete description travels back down.  These are
the value objects carried in those reports, plus :class:`TopologyMap`, the
complete picture each switch uses in step 5 to compute its forwarding
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.types import Uid


@dataclass(frozen=True, order=True, slots=True)
class PortRef:
    """A specific port on a specific switch."""

    uid: Uid
    port: int

    def __repr__(self) -> str:
        return f"{self.uid}:{self.port}"


@dataclass(frozen=True, slots=True)
class NetLink:
    """One operational switch-to-switch link, direction-free.

    Stored with endpoints in sorted order so that the two switches'
    independent observations of the same cable merge to one record.
    """

    a: PortRef
    b: PortRef

    def __post_init__(self) -> None:
        first, second = self.a, self.b
        if (second.uid, second.port) < (first.uid, first.port):
            object.__setattr__(self, "a", second)
            object.__setattr__(self, "b", first)

    def endpoint_at(self, uid: Uid) -> PortRef:
        if self.a.uid == uid:
            return self.a
        if self.b.uid == uid:
            return self.b
        raise ValueError(f"{uid} not on link {self}")

    def other_end(self, uid: Uid) -> PortRef:
        if self.a.uid == uid:
            return self.b
        if self.b.uid == uid:
            return self.a
        raise ValueError(f"{uid} not on link {self}")

    @property
    def is_loop(self) -> bool:
        return self.a.uid == self.b.uid


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    """One switch's contribution to the topology report."""

    uid: Uid
    #: tree level (0 at the root)
    level: int
    #: this switch's port leading to its tree parent (None at the root)
    parent_port: Optional[int]
    #: UID of the tree parent (None at the root)
    parent_uid: Optional[Uid]
    #: ports classified s.host
    host_ports: FrozenSet[int] = frozenset()
    #: switch number remembered from the previous epoch (1 if fresh)
    proposed_number: int = 1


@dataclass
class TopologyMap:
    """The complete topology + spanning tree + address assignment."""

    root: Uid
    switches: Dict[Uid, SwitchRecord] = field(default_factory=dict)
    links: Set[NetLink] = field(default_factory=set)
    #: switch-number assignment computed by the root (step 3)
    numbers: Dict[Uid, int] = field(default_factory=dict)

    #: memo of :meth:`index`, revalidated by content key on every call
    _index: Optional["TopologyIndex"] = field(default=None, init=False, repr=False, compare=False)

    # -- derived views ----------------------------------------------------------------

    def _content_key(self) -> tuple:
        """Value fingerprint of everything the derived views read.

        Switch numbers and host ports are deliberately excluded: adjacency,
        link orientation and distances depend only on the tree (levels,
        parents) and the link set.
        """
        # plain-int tuples: sorting and equality run at C speed instead of
        # through the Uid dataclass dunders (this key is recomputed on every
        # index() call to validate the memo)
        return (
            self.root,
            tuple(
                sorted(
                    (
                        uid.value,
                        rec.level,
                        -1 if rec.parent_port is None else rec.parent_port,
                        -1 if rec.parent_uid is None else rec.parent_uid.value,
                    )
                    for uid, rec in self.switches.items()
                )
            ),
            tuple(
                sorted(
                    (link.a.uid.value, link.a.port, link.b.uid.value, link.b.port)
                    for link in self.links
                )
            ),
        )

    def index(self) -> "TopologyIndex":
        """The derived views of this configuration, building on miss.

        Memoized on the instance (not a module global) so the memo's
        lifetime is the map's own; the content key guards against in-place
        mutation between calls, and an equal-but-distinct map builds its
        own.  Loops over many lookups should fetch the index once.
        """
        key = self._content_key()
        cached = self._index
        if cached is None or cached.key != key:
            cached = self._index = TopologyIndex(self, key)
        return cached

    def neighbors(self, uid: Uid) -> Dict[int, PortRef]:
        """Map each of ``uid``'s switch-to-switch ports to the far end
        (the index's own dict: read, do not mutate)."""
        return self.index().nbrs.get(uid, {})

    def level(self, uid: Uid) -> int:
        return self.switches[uid].level

    def children_ports(self, uid: Uid) -> Tuple[int, ...]:
        """Ports of ``uid`` that are the parent end of some child's tree link."""
        return self.index().children.get(uid, ())

    def validate(self) -> None:
        """Internal consistency checks; raises ValueError on violation."""
        if self.root not in self.switches:
            raise ValueError("root not among switches")
        root_record = self.switches[self.root]
        if root_record.level != 0 or root_record.parent_uid is not None:
            raise ValueError("root record malformed")
        for uid, record in self.switches.items():
            if uid == self.root:
                continue
            if record.parent_uid is None or record.parent_uid not in self.switches:
                raise ValueError(f"{uid} has no valid parent")
            if self.switches[record.parent_uid].level != record.level - 1:
                raise ValueError(f"{uid} level inconsistent with parent")
        for link in self.links:
            for end in (link.a, link.b):
                if end.uid not in self.switches:
                    raise ValueError(f"link endpoint {end} unknown")

    # -- sizing (for transmission timing) -------------------------------------------------

    def encoded_bytes(self) -> int:
        """Approximate wire size of the full description (section 6.6:
        reports grow as the stable subtree grows)."""
        return 16 * len(self.switches) + 12 * len(self.links) + 8 * len(self.numbers) + 16


class TopologyIndex:
    """Every derived view of one :class:`TopologyMap` content, built once.

    The root distributes *one* ``TopologyMap`` object down the tree (the
    simulated network carries payloads by reference), so all switches of an
    epoch -- and every invariant sweep over that epoch's tables -- read the
    same instance.  Adjacency, link orientation and child ports are filled
    in one pass over the links; the per-destination breadth-first sweeps
    over the layered (switch, phase) graph run on first use, once per
    destination instead of once per (switch, destination) pair.

    Loop links, and links naming a switch absent from ``switches``, are
    left out of every view: a loop carries no route, and a foreign UID is
    the oracle-agreement check's to report, not a reason to fail here.
    """

    __slots__ = ("key", "nbrs", "up_end", "children", "index", "_preds", "_dist")

    def __init__(self, topology: TopologyMap, key: tuple) -> None:
        self.key = key
        #: uid -> {port: far PortRef} for every switch
        self.nbrs: Dict[Uid, Dict[int, PortRef]] = {uid: {} for uid in topology.switches}
        #: (uid, port) -> True when that endpoint is the link's up end:
        #: the end closer to the root, ties broken by lower UID
        self.up_end: Dict[Tuple[Uid, int], bool] = {}
        #: uid -> position in the state numbering (uid index)*2 + phase
        self.index: Dict[Uid, int] = {uid: i for i, uid in enumerate(topology.switches)}
        # layered-graph reverse adjacency over those states
        preds: List[List[int]] = [[] for _ in range(2 * len(self.index))]
        switches, index = topology.switches, self.index
        for link in topology.links:
            a, b = link.a, link.b
            if a.uid == b.uid or a.uid not in switches or b.uid not in switches:
                continue
            self.nbrs[a.uid][a.port] = b
            self.nbrs[b.uid][b.port] = a
            level_a, level_b = switches[a.uid].level, switches[b.uid].level
            if level_a != level_b:
                a_up = level_a < level_b
            else:
                a_up = a.uid < b.uid
            self.up_end[(a.uid, a.port)] = a_up
            self.up_end[(b.uid, b.port)] = not a_up
            if a_up:
                uu, dd = index[a.uid] * 2, index[b.uid] * 2
            else:
                uu, dd = index[b.uid] * 2, index[a.uid] * 2
            # forward: (dd, UP) --up--> (uu, UP)
            preds[uu].append(dd)
            # forward: (uu, UP/DOWN) --down--> (dd, DOWN)
            preds[dd + 1].append(uu)
            preds[dd + 1].append(uu + 1)
        self._preds = preds

        children: Dict[Uid, List[int]] = {uid: [] for uid in switches}
        for uid, rec in switches.items():
            parent_end = self.nbrs[uid].get(rec.parent_port)
            if parent_end is not None and parent_end.uid == rec.parent_uid:
                children[rec.parent_uid].append(parent_end.port)
        #: uid -> sorted child ports (the down ends of tree links)
        self.children: Dict[Uid, Tuple[int, ...]] = {
            uid: tuple(sorted(ports)) for uid, ports in children.items()
        }
        #: dest uid -> state-indexed hop counts (-1 = unreachable)
        self._dist: Dict[Uid, List[int]] = {}

    def dist_to(self, dest: Uid) -> List[int]:
        """Minimum legal-route hop counts to ``dest``, indexed by state
        ``index[uid] * 2 + phase`` (phase 0 may still climb, phase 1 has
        descended); -1 where no legal route exists."""
        dist = self._dist.get(dest)
        if dist is None:
            dist = self._dist[dest] = self._bfs(dest)
        return dist

    def distance(self, uid: Uid, dest: Uid, phase: int = 0) -> int:
        """Hops on a minimum legal route from ``uid`` in ``phase`` to ``dest``."""
        return self.dist_to(dest)[self.index[uid] * 2 + phase]

    def _bfs(self, dest: Uid) -> List[int]:
        preds = self._preds
        dist = [-1] * len(preds)
        base = self.index[dest] * 2
        dist[base] = 0
        dist[base + 1] = 0
        frontier = [base, base + 1]
        hops = 0
        while frontier:
            hops += 1
            nxt: List[int] = []
            for state in frontier:
                for pred in preds[state]:
                    if dist[pred] < 0:
                        dist[pred] = hops
                        nxt.append(pred)
            frontier = nxt
        return dist

    def next_hops(
        self, uid: Uid, dest: Uid
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(UP-phase ports, DOWN-phase ports) on minimum legal routes."""
        dist = self.dist_to(dest)
        index = self.index
        base = index[uid] * 2
        here_up, here_down = dist[base], dist[base + 1]
        up_ports: List[int] = []
        down_ports: List[int] = []
        up_end = self.up_end
        for port, far in self.nbrs[uid].items():
            going_up = up_end[(far.uid, far.port)]
            far_state = index[far.uid] * 2 + (0 if going_up else 1)
            there = dist[far_state]
            if there < 0:
                continue
            if there + 1 == here_up:
                up_ports.append(port)
            if not going_up and there + 1 == here_down:
                down_ports.append(port)
        up_ports.sort()
        down_ports.sort()
        return tuple(up_ports), tuple(down_ports)


def merge_reports(
    root: Uid,
    own: SwitchRecord,
    own_links: Iterable[NetLink],
    child_maps: Iterable[TopologyMap],
) -> TopologyMap:
    """Combine a switch's own record with its stable children's subtrees."""
    merged = TopologyMap(root=root)
    merged.switches[own.uid] = own
    merged.links.update(own_links)
    for child_map in child_maps:
        merged.switches.update(child_map.switches)
        merged.links.update(child_map.links)
    return merged


def relevel(topology: TopologyMap) -> TopologyMap:
    """Recompute levels from parent pointers (defensive normalization)."""
    levels: Dict[Uid, int] = {topology.root: 0}
    changed = True
    while changed:
        changed = False
        for uid, record in topology.switches.items():
            if uid in levels:
                continue
            if record.parent_uid in levels:
                levels[uid] = levels[record.parent_uid] + 1
                changed = True
    new_switches = {
        uid: replace(record, level=levels.get(uid, record.level))
        for uid, record in topology.switches.items()
    }
    return TopologyMap(
        root=topology.root,
        switches=new_switches,
        links=set(topology.links),
        numbers=dict(topology.numbers),
    )
