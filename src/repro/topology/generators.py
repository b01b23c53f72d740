"""Switch-graph generators.

A :class:`TopologySpec` is the *installation*: switches with UIDs and the
cables between specific ports.  It is what the Network facade wires up,
and what pure-routing tests convert straight into a
:class:`~repro.core.topo.TopologyMap` via :func:`expected_tree` (the tree
the distributed algorithm provably converges to: rooted at the smallest
UID, minimum-level, ties by parent UID then port number).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import PORTS_PER_SWITCH
from repro.core.topo import NetLink, PortRef, SwitchRecord, TopologyMap
from repro.topology.graph import distances, spec_graph
from repro.types import Uid


@dataclass
class TopologySpec:
    """An installation: ``n`` switches and the cables between their ports."""

    uids: List[Uid]
    #: (switch index a, port at a, switch index b, port at b)
    cables: List[Tuple[int, int, int, int]] = field(default_factory=list)
    name: str = "topology"

    @property
    def n_switches(self) -> int:
        return len(self.uids)

    def used_ports(self, index: int) -> List[int]:
        ports = []
        for a, pa, b, pb in self.cables:
            if a == index:
                ports.append(pa)
            if b == index:
                ports.append(pb)
        return sorted(ports)

    def free_ports(self, index: int) -> List[int]:
        used = set(self.used_ports(index))
        return [p for p in range(1, PORTS_PER_SWITCH + 1) if p not in used]


class _PortAllocator:
    """Hands out switch ports 1..12 in order as cables are added."""

    def __init__(self, n_switches: int) -> None:
        self._next = [1] * n_switches

    def take(self, index: int) -> int:
        port = self._next[index]
        if port > PORTS_PER_SWITCH:
            raise ValueError(f"switch {index} is out of ports")
        self._next[index] = port + 1
        return port


def from_edges(
    edges: Sequence[Tuple[int, int]],
    n: Optional[int] = None,
    name: str = "custom",
) -> TopologySpec:
    """Build a spec from an (a, b) switch-index edge list."""
    if n is None:
        n = max(max(a, b) for a, b in edges) + 1 if edges else 1
    spec = TopologySpec(uids=[Uid(0x1000 + i) for i in range(n)], name=name)
    alloc = _PortAllocator(n)
    for a, b in edges:
        spec.cables.append((a, alloc.take(a), b, alloc.take(b)))
    return spec


def line(n: int) -> TopologySpec:
    return from_edges([(i, i + 1) for i in range(n - 1)], n=n, name=f"line-{n}")


def ring(n: int) -> TopologySpec:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return from_edges(edges, n=n, name=f"ring-{n}")


def tree(depth: int, fanout: int = 2) -> TopologySpec:
    """A complete tree with the given depth and fanout."""
    edges = []
    nodes = 1
    level_start = 0
    for _level in range(depth):
        next_start = nodes
        for parent in range(level_start, nodes):
            for _child in range(fanout):
                edges.append((parent, nodes))
                nodes += 1
        level_start = next_start
    return from_edges(edges, n=nodes, name=f"tree-d{depth}f{fanout}")


def mesh(rows: int, cols: int) -> TopologySpec:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return from_edges(edges, n=rows * cols, name=f"mesh-{rows}x{cols}")


def torus(rows: int, cols: int) -> TopologySpec:
    """The paper's service-network shape: an approximate rows x cols torus."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            if cols > 2 or c + 1 < cols:
                edges.append((i, right))
            if rows > 2 or r + 1 < rows:
                edges.append((i, down))
    # dedupe (wrap edges of 2-wide tori appear twice)
    seen = set()
    unique = []
    for a, b in edges:
        key = (min(a, b), max(a, b), len([e for e in unique if set(e) == {a, b}]))
        if key in seen:
            continue
        seen.add(key)
        unique.append((a, b))
    return from_edges(unique, n=rows * cols, name=f"torus-{rows}x{cols}")


def random_regular(
    n: int,
    degree: int = 3,
    seed: int = 0,
) -> TopologySpec:
    """A random connected graph with maximum degree ``degree``.

    Built as a random spanning tree plus random extra edges, which models
    organically grown installations better than a strict regular graph.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    deg = [0] * n
    for i in range(1, n):
        candidates = [j for j in order[:i] if deg[order[i]] < degree and deg[j] < degree]
        if not candidates:
            candidates = order[:i]
        parent = rng.choice(candidates)
        edges.append((parent, order[i]))
        deg[parent] += 1
        deg[order[i]] += 1
    extra = n * max(0, degree - 2) // 2
    attempts = 0
    while extra > 0 and attempts < 20 * n:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or deg[a] >= degree or deg[b] >= degree:
            continue
        if (a, b) in edges or (b, a) in edges:
            continue
        edges.append((a, b))
        deg[a] += 1
        deg[b] += 1
        extra -= 1
    return from_edges(edges, n=n, name=f"random-{n}d{degree}s{seed}")


def fat_tree(k: int) -> TopologySpec:
    """A three-tier fat-tree of ``k``-port switches (the data-center
    folded Clos): ``(k/2)^2`` core switches and ``k`` pods of ``k/2``
    aggregation plus ``k/2`` edge switches each -- ``5k^2/4`` switches
    total (k=4: 20, k=6: 45, k=8: 80).

    Index layout is deterministic: cores first, then pod by pod
    (aggregation switches before edge switches).  Edge switches keep
    ``k/2`` ports free for hosts; every switch-to-switch degree is at
    most ``k``, so any even ``k`` up to ``PORTS_PER_SWITCH`` fits the
    paper's 12-port crossbar.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    if k > PORTS_PER_SWITCH:
        raise ValueError(
            f"fat-tree arity {k} exceeds {PORTS_PER_SWITCH} switch ports"
        )
    half = k // 2
    cores = half * half
    n = cores + k * k  # cores + k pods of (half agg + half edge)
    edges = []
    for pod in range(k):
        base = cores + pod * k
        agg = [base + j for j in range(half)]
        edge = [base + half + j for j in range(half)]
        for e in edge:
            for a in agg:
                edges.append((a, e))
        # aggregation switch j serves the j-th stripe of core switches
        for j, a in enumerate(agg):
            for i in range(half):
                edges.append((j * half + i, a))
    return from_edges(edges, n=n, name=f"fat-tree-{k}")


def dcell(n: int, level: int = 1) -> TopologySpec:
    """A DCell_level built from ``n``-server cells (Guo et al., the
    recursively-defined data-center topology).

    DCell_0 is ``n`` server nodes on one mini-switch; DCell_l combines
    ``t_{l-1} + 1`` copies of DCell_{l-1}, giving every server one extra
    level link (server ``i`` of cell ``j`` pairs with server ``j-1`` of
    cell ``i``).  In an Autonet installation every node is a switch, so
    servers appear as switches with ``1 + level`` used ports and
    mini-switches with ``n``.  Servers take indices ``[0, t_level)``,
    mini-switches follow.
    """
    if n < 2:
        raise ValueError(f"dcell needs >= 2 servers per cell, got {n}")
    if n > PORTS_PER_SWITCH:
        raise ValueError(
            f"dcell mini-switch needs {n} ports, more than {PORTS_PER_SWITCH}"
        )
    if not 0 <= level <= 2:
        raise ValueError(f"dcell level must be 0, 1, or 2, got {level}")
    if 1 + level > PORTS_PER_SWITCH:  # pragma: no cover - level cap is lower
        raise ValueError("dcell server degree exceeds the port count")
    # server counts per level: t_0 = n, t_l = t_{l-1} * (t_{l-1} + 1)
    t = [n]
    for _l in range(level):
        t.append(t[-1] * (t[-1] + 1))
    servers = t[level]
    edges: List[Tuple[int, int]] = []

    def build(base: int, lvl: int) -> None:
        if lvl == 0:
            return
        size = t[lvl - 1]
        for i in range(size + 1):
            build(base + i * size, lvl - 1)
        # the paper's connection rule: [i, j-1] -- [j, i] for i < j
        for i in range(size):
            for j in range(i + 1, size + 1):
                edges.append((base + i * size + (j - 1), base + j * size + i))

    build(0, level)
    for cell in range(servers // n):  # one mini-switch per DCell_0
        switch = servers + cell
        for s in range(n):
            edges.append((cell * n + s, switch))
    total = servers + servers // n
    return from_edges(edges, n=total, name=f"dcell-{n}l{level}")


#: (canonical example, description) per resolvable topology family --
#: rendered by CLI usage listings and the resolve_topology error message
TOPOLOGY_FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("torus-3x4", "R x C torus (the paper's service-network shape)"),
    ("mesh-2x3", "R x C mesh without wraparound"),
    ("ring-8", "N-switch ring"),
    ("line-5", "N-switch line"),
    ("tree-d2f3", "complete tree, depth D fanout F"),
    ("random-16d3s5", "random connected graph, N nodes degree D seed S"),
    ("fat-tree-4", "three-tier fat-tree of even-K-port switches"),
    ("dcell-3l1", "DCell_L of N-server cells"),
    ("src-lan-30", "the 30-switch SRC service LAN of section 5.5"),
)


def topology_names() -> List[str]:
    """Canonical example names, one per resolvable family."""
    return [example for example, _desc in TOPOLOGY_FAMILIES]


def resolve_topology(name: str) -> TopologySpec:
    """Build a spec from its canonical name: ``torus-3x4``, ``mesh-2x3``,
    ``ring-8``, ``line-5``, ``tree-d2f3``, ``random-16d3s5``,
    ``fat-tree-4``, ``dcell-3l1``, or ``src-lan-30``.

    Every generator names its spec this way, so ``resolve_topology(
    spec.name)`` round-trips; CLIs (chaos campaigns, benches) use it to
    take topologies as strings.
    """
    import re

    if name == "src-lan-30":
        from repro.topology.src_lan import src_service_lan

        return src_service_lan()
    patterns = [
        (r"^(torus)-(\d+)x(\d+)$", lambda m: torus(int(m[2]), int(m[3]))),
        (r"^(mesh)-(\d+)x(\d+)$", lambda m: mesh(int(m[2]), int(m[3]))),
        (r"^(ring)-(\d+)$", lambda m: ring(int(m[2]))),
        (r"^(line)-(\d+)$", lambda m: line(int(m[2]))),
        (r"^(tree)-d(\d+)f(\d+)$", lambda m: tree(int(m[2]), int(m[3]))),
        (
            r"^(random)-(\d+)d(\d+)s(\d+)$",
            lambda m: random_regular(int(m[2]), degree=int(m[3]), seed=int(m[4])),
        ),
        (r"^(fat-tree)-(\d+)$", lambda m: fat_tree(int(m[2]))),
        (r"^(dcell)-(\d+)l(\d+)$", lambda m: dcell(int(m[2]), int(m[3]))),
    ]
    for pattern, build in patterns:
        match = re.match(pattern, name)
        if match:
            return build(match)
    examples = ", ".join(topology_names())
    raise ValueError(f"unknown topology {name!r} (try {examples})")


def expected_tree(spec: TopologySpec, host_ports: Optional[Dict[int, List[int]]] = None) -> TopologyMap:
    """The spanning tree the distributed algorithm converges to.

    Root is the smallest UID; every switch takes the position minimizing
    (root, level, parent UID, port to parent) -- the comparison rule of
    section 6.6.1.  Used as the oracle for protocol tests and as a direct
    input for pure routing experiments.
    """
    n = spec.n_switches
    adjacency: Dict[int, List[Tuple[int, int, int]]] = {i: [] for i in range(n)}
    links = set()
    for a, pa, b, pb in spec.cables:
        if a == b:
            continue  # looped links are omitted from the configuration
        adjacency[a].append((b, pa, pb))
        adjacency[b].append((a, pb, pa))
        links.add(NetLink(PortRef(spec.uids[a], pa), PortRef(spec.uids[b], pb)))

    root_index = min(range(n), key=lambda i: spec.uids[i])
    levels = distances(spec_graph(spec), root_index)
    if len(levels) != n:
        raise ValueError("topology is not connected")

    switches: Dict[Uid, SwitchRecord] = {}
    hosts = host_ports or {}
    for i in range(n):
        if i == root_index:
            parent_uid, parent_port = None, None
        else:
            # best parent: minimal (parent uid, my port) among level-1 neighbors
            options = [
                (spec.uids[j], pi)
                for j, pi, _pj in adjacency[i]
                if levels[j] == levels[i] - 1
            ]
            parent_uid, parent_port = min(options)
        switches[spec.uids[i]] = SwitchRecord(
            uid=spec.uids[i],
            level=levels[i],
            parent_port=parent_port,
            parent_uid=parent_uid,
            host_ports=frozenset(hosts.get(i, [])),
            proposed_number=i + 1,
        )
    topology = TopologyMap(root=spec.uids[root_index], switches=switches, links=links)
    topology.numbers = {spec.uids[i]: i + 1 for i in range(n)}
    return topology
