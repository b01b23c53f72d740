"""Tree positions and the Perlman-style comparison rule (section 6.6.1).

Each switch maintains its current position in the forming spanning tree as
(root UID, level, parent UID, port to parent).  A port offering a new
position is a *better parent link* if it leads to:

1. a root with a smaller UID, or
2. the same root via a shorter tree path, or
3. the same root and length but through a parent with a smaller UID, or
4. the same parent but via a lower port number.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.types import Uid


class TreePosition(NamedTuple):
    """A switch's claimed position in the spanning tree: a tuple, built and
    compared for every tree-position message."""

    root: Uid
    level: int
    parent_uid: Optional[Uid] = None
    parent_port: Optional[int] = None

    @staticmethod
    def as_root(uid: Uid) -> "TreePosition":
        """The initial position: every switch assumes it is the root."""
        return TreePosition(uid, 0)

    def sort_key(self) -> tuple:
        """Total order: smaller is better (a UID orders by its value)."""
        return (
            self.root.value,
            self.level,
            0 if self.parent_uid is None else self.parent_uid.value,
            -1 if self.parent_port is None else self.parent_port,
        )

    def better_than(self, other: "TreePosition") -> bool:
        return self.sort_key() < other.sort_key()


def candidate_position(
    neighbor_root: Uid, neighbor_level: int, neighbor_uid: Uid, my_port: int
) -> TreePosition:
    """The position I would hold by adopting this neighbor as parent."""
    return TreePosition(neighbor_root, neighbor_level + 1, neighbor_uid, my_port)
