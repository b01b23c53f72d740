"""Tree-position comparison (section 6.6.1) and switch-number assignment
(section 6.6.3)."""

import pytest

from repro.core.addressing import (
    AddressSpaceExhausted,
    assign_switch_numbers,
)
from repro.core.topo import SwitchRecord
from repro.core.treepos import TreePosition, candidate_position
from repro.types import MAX_SWITCH_NUMBER, Uid
from tests.checkers import verify_assignment


def record(uid_val, proposed):
    return SwitchRecord(
        uid=Uid(uid_val), level=0, parent_port=None, parent_uid=None,
        proposed_number=proposed,
    )


class TestTreePosition:
    def test_smaller_root_wins(self):
        a = TreePosition(root=Uid(1), level=5, parent_uid=Uid(9), parent_port=9)
        b = TreePosition(root=Uid(2), level=0)
        assert a.better_than(b)

    def test_same_root_shorter_path_wins(self):
        a = TreePosition(root=Uid(1), level=2, parent_uid=Uid(5), parent_port=1)
        b = TreePosition(root=Uid(1), level=3, parent_uid=Uid(2), parent_port=1)
        assert a.better_than(b)

    def test_same_length_smaller_parent_uid_wins(self):
        a = TreePosition(root=Uid(1), level=2, parent_uid=Uid(3), parent_port=7)
        b = TreePosition(root=Uid(1), level=2, parent_uid=Uid(4), parent_port=1)
        assert a.better_than(b)

    def test_same_parent_lower_port_wins(self):
        a = TreePosition(root=Uid(1), level=2, parent_uid=Uid(3), parent_port=2)
        b = TreePosition(root=Uid(1), level=2, parent_uid=Uid(3), parent_port=5)
        assert a.better_than(b)

    def test_initial_position_is_self_root(self):
        pos = TreePosition.as_root(Uid(7))
        assert pos.root == Uid(7) and pos.level == 0
        assert pos.parent_uid is None and pos.parent_port is None

    def test_candidate_position(self):
        cand = candidate_position(Uid(1), 3, Uid(9), my_port=4)
        assert cand == TreePosition(root=Uid(1), level=4, parent_uid=Uid(9), parent_port=4)


class TestAssignment:
    def test_unique_proposals_honored(self):
        records = {Uid(1): record(1, 5), Uid(2): record(2, 9)}
        numbers = assign_switch_numbers(records)
        assert numbers == {Uid(1): 5, Uid(2): 9}

    def test_conflict_goes_to_smallest_uid(self):
        """Section 6.6.3: the root satisfies the switch with the smallest
        UID and assigns unrequested low numbers to the losers."""
        records = {Uid(9): record(9, 3), Uid(2): record(2, 3), Uid(5): record(5, 3)}
        numbers = assign_switch_numbers(records)
        assert numbers[Uid(2)] == 3
        assert sorted(numbers.values()) == [1, 2, 3]

    def test_fresh_switches_propose_one(self):
        records = {Uid(1): record(1, 1), Uid(2): record(2, 1), Uid(3): record(3, 7)}
        numbers = assign_switch_numbers(records)
        assert numbers[Uid(1)] == 1
        assert numbers[Uid(3)] == 7
        assert numbers[Uid(2)] == 2  # lowest unrequested

    def test_invalid_proposal_treated_as_loser(self):
        records = {Uid(1): record(1, 0), Uid(2): record(2, 10_000)}
        numbers = assign_switch_numbers(records)
        assert sorted(numbers.values()) == [1, 2]

    def test_exhaustion_raises(self):
        records = {
            Uid(i): record(i, 1) for i in range(1, MAX_SWITCH_NUMBER + 2)
        }
        with pytest.raises(AddressSpaceExhausted):
            assign_switch_numbers(records)

    def test_verify_catches_duplicates(self):
        with pytest.raises(ValueError):
            verify_assignment({Uid(1): 4, Uid(2): 4}, [Uid(1), Uid(2)])

    def test_verify_catches_missing(self):
        with pytest.raises(ValueError):
            verify_assignment({Uid(1): 4}, [Uid(1), Uid(2)])

    def test_full_space_assignable(self):
        records = {Uid(i): record(i, i) for i in range(1, MAX_SWITCH_NUMBER + 1)}
        numbers = assign_switch_numbers(records)
        verify_assignment(numbers, records.keys())
        assert numbers == {Uid(i): i for i in range(1, MAX_SWITCH_NUMBER + 1)}
