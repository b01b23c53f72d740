"""Switch-number and short-address assignment (section 6.6.3).

Each switch proposes the number it held in the previous epoch (1 after a
power-on).  The root honors proposals; a contested number goes to the
proposer with the smallest UID, and losers -- along with switches whose
proposals were invalid -- receive the lowest unassigned numbers.  Because
proposals are honored, short addresses tend to survive reconfigurations,
which is what keeps host UID caches warm (section 6.8.1).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.topo import SwitchRecord
from repro.types import MAX_SWITCH_NUMBER, Uid


class AddressSpaceExhausted(RuntimeError):
    """More switches than assignable switch numbers."""


def assign_switch_numbers(records: Mapping[Uid, SwitchRecord]) -> Dict[Uid, int]:
    """Resolve proposed switch numbers into a unique assignment."""
    if len(records) > MAX_SWITCH_NUMBER:
        raise AddressSpaceExhausted(
            f"{len(records)} switches exceed the {MAX_SWITCH_NUMBER}-number space"
        )

    assignment: Dict[Uid, int] = {}
    contenders: Dict[int, List[Uid]] = {}
    losers: List[Uid] = []
    for uid in sorted(records):
        proposal = records[uid].proposed_number
        if 1 <= proposal <= MAX_SWITCH_NUMBER:
            contenders.setdefault(proposal, []).append(uid)
        else:
            losers.append(uid)

    for number, uids in contenders.items():
        winner = min(uids)  # the switch with the smallest UID is satisfied
        assignment[winner] = number
        losers.extend(uid for uid in uids if uid != winner)

    used = set(assignment.values())
    free = (n for n in range(1, MAX_SWITCH_NUMBER + 1) if n not in used)
    for uid in sorted(losers):
        assignment[uid] = next(free)
    return assignment
