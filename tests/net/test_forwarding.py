"""Forwarding-table semantics: the constant part and entry interpretation
(section 6.3), and the row-shaped memory against a dict-of-cells model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    ADDR_LOCAL_SWITCH,
    ADDR_LOOPBACK,
    ADDR_ONE_HOP_BASE,
    ADDR_ONE_HOP_LIMIT,
    CONTROL_PROCESSOR_PORT,
    PORTS_PER_SWITCH,
)
from repro.net.forwarding import DISCARD_ENTRY, ForwardingEntry, ForwardingTable, distinct_rows
from repro.types import truncate_address

IN_PORTS = range(PORTS_PER_SWITCH + 1)


def row(cells):
    """A total row from ``{receiving port: entry}``; the rest discards."""
    return tuple(cells.get(in_port, DISCARD_ENTRY) for in_port in IN_PORTS)


class TestForwardingEntry:
    def test_ports_sorted(self):
        entry = ForwardingEntry((7, 3, 5))
        assert entry.ports == (3, 5, 7)

    def test_discard_is_broadcast_with_empty_vector(self):
        """Section 6.3: a broadcast entry with all 0's means discard."""
        assert DISCARD_ENTRY.broadcast
        assert DISCARD_ENTRY.ports == ()
        assert DISCARD_ENTRY.is_discard
        assert not ForwardingEntry((1,), broadcast=True).is_discard
        # an alternative entry with no ports is NOT the discard encoding
        assert not ForwardingEntry((), broadcast=False).is_discard

    def test_port_range_checked(self):
        with pytest.raises(ValueError):
            ForwardingEntry((13,))


class TestConstantPart:
    def test_one_hop_from_cp(self):
        """0x001-0x00C from port 0 transmit on the numbered port."""
        table = ForwardingTable()
        for port in range(1, 13):
            entry = table.lookup(CONTROL_PROCESSOR_PORT, ADDR_ONE_HOP_BASE + port - 1)
            assert entry.ports == (port,)

    def test_one_hop_from_external_port_goes_to_cp(self):
        table = ForwardingTable()
        for in_port in range(1, 13):
            entry = table.lookup(in_port, ADDR_ONE_HOP_BASE + 2)
            assert entry.ports == (CONTROL_PROCESSOR_PORT,)

    def test_local_switch_address(self):
        """0x000 from a host reaches the local control processor."""
        table = ForwardingTable()
        entry = table.lookup(5, ADDR_LOCAL_SWITCH)
        assert entry.ports == (CONTROL_PROCESSOR_PORT,)

    def test_loopback_reflects(self):
        """0xFFC reflects back down the receiving link."""
        table = ForwardingTable()
        for in_port in range(1, 13):
            assert table.lookup(in_port, ADDR_LOOPBACK).ports == (in_port,)

    def test_unknown_address_discarded(self):
        table = ForwardingTable()
        assert table.lookup(3, 0x123).is_discard

    def test_reserved_addresses_discarded(self):
        """0xFF0-0xFFB are reserved: packets discarded (section 6.3)."""
        table = ForwardingTable()
        for address in range(0x7F0, 0x7FC):
            assert table.lookup(3, address).is_discard


class TestLoading:
    def test_clear_preserves_constant_part(self):
        table = ForwardingTable()
        table.set_entry(3, 0x123, ForwardingEntry((7,)))
        table.clear_to_constant()
        assert table.lookup(3, 0x123).is_discard
        assert table.lookup(3, ADDR_ONE_HOP_BASE).ports == (CONTROL_PROCESSOR_PORT,)

    def test_load_replaces_non_constant(self):
        table = ForwardingTable()
        table.load({0x100: row({3: ForwardingEntry((5,))})})
        assert table.lookup(3, 0x100).ports == (5,)
        table.load({0x200: row({3: ForwardingEntry((6,))})})
        assert table.lookup(3, 0x100).is_discard
        assert table.lookup(3, 0x200).ports == (6,)

    def test_generation_counts_loads(self):
        table = ForwardingTable()
        g0 = table.generation
        table.load({})
        table.clear_to_constant()
        assert table.generation == g0 + 2

    def test_addresses_truncated_on_access(self):
        table = ForwardingTable()
        table.set_entry(1, 0xFFFC, ForwardingEntry((1,)))
        assert table.lookup(1, 0x7FC).ports == (1,)

    def test_non_constant_entries_view(self):
        table = ForwardingTable()
        table.set_entry(2, 0x100, ForwardingEntry((4,)))
        extra = table.non_constant_rows()
        assert extra == {0x100: row({2: ForwardingEntry((4,))})}

    def test_set_entry_on_a_shared_row_changes_one_address_only(self):
        """One row object serves a destination's 13 port addresses (and may
        serve other tables): a write copies it."""
        shared = row({i: ForwardingEntry((3,)) for i in IN_PORTS})
        rows = {0x100 + q: shared for q in IN_PORTS}
        table, other = ForwardingTable(), ForwardingTable()
        table.load(rows)
        other.load(rows)
        table.set_entry(5, 0x104, ForwardingEntry((7,)))
        for q in IN_PORTS:
            for in_port in IN_PORTS:
                changed = (in_port, 0x100 + q) == (5, 0x104)
                assert table.lookup(in_port, 0x100 + q).ports == ((7,) if changed else (3,))
                assert other.lookup(in_port, 0x100 + q).ports == (3,)
        assert rows[0x104] is shared and shared[5].ports == (3,)
        assert [address for address, _row in distinct_rows(rows)] == [0x100]
        loaded = table.non_constant_rows()
        assert [address for address, _row in distinct_rows(loaded)] == [0x100, 0x104, 0x105]
        assert len(table) == len(other) == 14 + 13


class CellModel:
    """The table as a flat dict of ``(receiving port, address)`` cells, one
    cell written at a time: what ``ForwardingTable`` was before rows."""

    def __init__(self):
        self.constant = {}
        for out_port in range(1, PORTS_PER_SWITCH + 1):
            one_hop = ADDR_ONE_HOP_BASE + out_port - 1
            assert one_hop <= ADDR_ONE_HOP_LIMIT
            self.constant[(CONTROL_PROCESSOR_PORT, one_hop)] = ForwardingEntry((out_port,))
            for in_port in range(1, PORTS_PER_SWITCH + 1):
                self.constant[(in_port, one_hop)] = ForwardingEntry((CONTROL_PROCESSOR_PORT,))
        for in_port in range(1, PORTS_PER_SWITCH + 1):
            self.constant[(in_port, ADDR_LOCAL_SWITCH)] = ForwardingEntry((CONTROL_PROCESSOR_PORT,))
            self.constant[(in_port, ADDR_LOOPBACK)] = ForwardingEntry((in_port,))
        self.cells = dict(self.constant)
        self.generation = 0

    def lookup(self, in_port, address):
        return self.cells.get((in_port, truncate_address(address)), DISCARD_ENTRY)

    def clear_to_constant(self):
        self.cells = dict(self.constant)
        self.generation += 1

    def set_entry(self, in_port, address, entry):
        self.cells[(in_port, truncate_address(address))] = entry

    def load(self, rows):
        self.cells = dict(self.constant)
        for address, cells in rows.items():
            for in_port, entry in enumerate(cells):
                self.cells[(in_port, address)] = entry
        self.generation += 1


entries = st.one_of(
    st.just(DISCARD_ENTRY),
    st.builds(
        ForwardingEntry,
        st.lists(st.integers(0, PORTS_PER_SWITCH), max_size=3, unique=True).map(tuple),
        st.booleans(),
    ),
)
#: where the interesting addresses are: the constant part, ordinary
#: assignable ones, the reserved block 0xFF0-0xFFB, and the broadcasts
short_addresses = st.one_of(
    st.sampled_from([ADDR_LOCAL_SWITCH, ADDR_ONE_HOP_BASE, ADDR_ONE_HOP_BASE + 11, ADDR_LOOPBACK]),
    st.integers(0x010, 0x030),
    st.integers(0x7F0, 0x7FF),
)
#: the same, as a packet may carry them: bits above the 11 the switch reads
wire_addresses = st.builds(lambda a, high: a | (high << 11), short_addresses, st.integers(0, 31))
in_ports = st.integers(0, PORTS_PER_SWITCH)
total_rows = st.lists(entries, min_size=len(IN_PORTS), max_size=len(IN_PORTS)).map(tuple)
#: a load: few row objects, each shared by several addresses
loads = st.lists(total_rows, min_size=1, max_size=3).flatmap(
    lambda rows: st.dictionaries(short_addresses, st.sampled_from(rows), max_size=12)
)
operations = st.one_of(
    st.tuples(st.just("load"), loads),
    st.tuples(st.just("clear_to_constant")),
    st.tuples(st.just("set_entry"), in_ports, wire_addresses, entries),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, max_size=12), st.lists(wire_addresses, min_size=1, max_size=8))
def test_row_table_equals_the_dict_of_cells_model(ops, probes):
    table, model = ForwardingTable(), CellModel()
    pristine = ForwardingTable()
    constant = sorted({address for _in_port, address in model.constant})
    touched = set(probes) | set(constant)
    for name, *args in ops:
        getattr(table, name)(*args)
        getattr(model, name)(*args)
        if name == "load":
            touched |= set(args[0])
        elif name == "set_entry":
            touched.add(args[1])
        assert table.generation == model.generation
        for address in sorted(touched):
            for in_port in IN_PORTS:
                assert table.lookup(in_port, address) == model.lookup(in_port, address)
        if name == "clear_to_constant":
            assert table.non_constant_rows() == {}
            for address in constant:
                for in_port in IN_PORTS:
                    assert table.lookup(in_port, address) == pristine.lookup(in_port, address)


def test_converged_src_lan_holds_rows_not_cells():
    """The size guard, counted instead of weighed: 30 switches x 13 port
    addresses + 3 broadcasts + the 14-row constant part per table, a few
    dozen row objects behind them -- where a cell per (receiving port,
    address) made 158 670 dict entries.  The flight record still counts
    the memory's cells."""
    from repro.constants import SEC
    from repro.network import Network
    from repro.sim.trace import CAT_TABLE
    from repro.topology import resolve_topology

    net = Network(resolve_topology("src-lan-30"), seed=0, flight=True)
    assert net.run_until_converged(timeout_ns=120 * SEC)
    assert [len(switch.table) for switch in net.switches] == [407] * 30
    for switch in net.switches:
        loaded = switch.table.non_constant_rows()
        assert len(loaded) == 393
        assert len({id(row) for row in loaded.values()}) + 14 <= 64
        assert all(len(row) == PORTS_PER_SWITCH + 1 for row in loaded.values())
        record = net.flight.last(component=switch.name, category=CAT_TABLE, name="table-load")
        assert record.attrs["entries"] == 393 * 13 == 5109
