"""The graph questions this repository asks of a switch graph, over the
cable *multigraph*: parallel cables count (a doubled trunk is no bridge),
a cable from a switch to itself connects nothing.  A graph is
``{node: [neighbour, ...]}`` with one list entry per cable end.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: nodes are switch indices here; any orderable hashable serves
Graph = Mapping[int, Sequence[int]]


def adjacency(nodes: Iterable[int], cables: Iterable[Tuple[int, int]]) -> Dict[int, List[int]]:
    graph: Dict[int, List[int]] = {node: [] for node in nodes}
    for a, b in cables:
        if a != b:
            graph[a].append(b)
            graph[b].append(a)
    return graph


def spec_graph(spec) -> Dict[int, List[int]]:
    """The trunk graph of a :class:`~repro.topology.generators.TopologySpec`."""
    return adjacency(range(spec.n_switches), ((a, b) for a, _pa, b, _pb in spec.cables))


def distances(graph: Graph, start: int) -> Dict[int, int]:
    """Hops from ``start`` to every node it reaches (breadth first)."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for far in graph[node]:
            if far not in dist:
                dist[far] = dist[node] + 1
                frontier.append(far)
    return dist


def components(graph: Graph) -> List[FrozenSet[int]]:
    """Connected components, sorted by smallest member."""
    found: List[FrozenSet[int]] = []
    for node in graph:
        if not any(node in component for component in found):
            found.append(frozenset(distances(graph, node)))
    return sorted(found, key=min)


def diameter(graph: Graph) -> int:
    """The longest shortest path, in cables; the graph must be connected."""
    reach = [distances(graph, node) for node in graph]
    if any(len(dist) != len(graph) for dist in reach):
        raise ValueError("diameter of a disconnected graph")
    return max((max(dist.values()) for dist in reach), default=0)


def cut_points_and_bridges(graph: Graph) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Nodes, and cables, whose single failure disconnects something: one
    low-link depth-first sweep (recursive: as deep as the graph has nodes,
    and an Autonet holds at most 126 switches).
    """
    order: Dict[int, int] = {}
    low: Dict[int, int] = {}
    cuts: Set[int] = set()
    bridges: List[Tuple[int, int]] = []

    def sweep(node: int, came_from: Optional[int]) -> None:
        order[node] = low[node] = len(order)
        is_root, subtrees = came_from is None, 0
        for far in graph[node]:
            if far == came_from:
                # skip the cable we came down, once: a second cable to the
                # parent is a back edge, so a doubled trunk is no bridge
                came_from = None
            elif far in order:
                low[node] = min(low[node], order[far])
            else:
                sweep(far, node)
                subtrees += 1
                low[node] = min(low[node], low[far])
                if low[far] > order[node]:
                    bridges.append((min(node, far), max(node, far)))
                if low[far] >= order[node] and not is_root:
                    cuts.add(node)
        if is_root and subtrees > 1:
            cuts.add(node)

    for node in graph:
        if node not in order:
            sweep(node, None)
    return sorted(cuts), sorted(bridges)
