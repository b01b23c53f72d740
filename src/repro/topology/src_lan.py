"""The SRC service LAN of section 5.5.

Thirty switches arranged as an approximate 4 x 8 torus (two cells short of
a full 32), four of the twelve ports on each switch used for switch links
and eight for hosts, giving capacity for 120 dual-homed host connections.
The maximum switch-to-switch distance is six links (section 6.6.5).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.topology.generators import TopologySpec, from_edges


def src_service_lan() -> TopologySpec:
    """The 30-switch approximate 4x8 torus of the paper."""
    rows, cols = 4, 8
    present = [(r, c) for r in range(rows) for c in range(cols)]
    # drop two cells to make it an *approximate* torus of 30 switches
    removed = {(3, 6), (3, 7)}
    present = [cell for cell in present if cell not in removed]
    index: Dict[Tuple[int, int], int] = {cell: i for i, cell in enumerate(present)}

    def neighbor(r: int, c: int, dr: int, dc: int) -> Optional[int]:
        cell = ((r + dr) % rows, (c + dc) % cols)
        if cell in index:
            return index[cell]
        # wrap again past removed cells along the same axis
        cell = ((r + 2 * dr) % rows, (c + 2 * dc) % cols)
        return index.get(cell)

    edges = set()
    for (r, c), i in index.items():
        for dr, dc in ((0, 1), (1, 0)):
            j = neighbor(r, c, dr, dc)
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))

    return from_edges(sorted(edges), n=len(present), name="src-lan-30")
