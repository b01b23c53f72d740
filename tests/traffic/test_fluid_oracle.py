"""``solve_rates`` over pairs with multiplicities == the per-flow solver.

``tests/naive_fluid.py`` keeps the solver ``src/`` had while the plan was
one entry per flow.  The pair solver must return *the same floats* --
``==``, never ``approx`` -- for any multiset of paths: that is what lets
the engine keep one record per switch pair and still write byte-identical
documents.  Nor may they depend on the order the pairs, or the
pairs on each link, are handed over in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.fluid import LINK_CAPACITY
from tests.naive_fluid import naive_flow_rates, solve_pairs

#: a small key space, so paths share links and equal shares are common
link_keys = st.tuples(st.integers(0, 2), st.integers(1, 2))
#: ``None`` unrouted, ``()`` same switch, keys may repeat (a walked loop)
routes = st.one_of(st.none(), st.lists(link_keys, max_size=5).map(tuple))


@st.composite
def path_multisets(draw):
    """flow id -> path: each drawn route up to 40 times (small counts
    favoured, so links tie), sometimes with its reverse (same canonical
    links, other direction), ids shuffled."""
    counts = st.one_of(st.integers(1, 3), st.integers(1, 40))
    flows = []
    for route in draw(st.lists(routes, min_size=1, max_size=8)):
        flows += [route] * draw(counts)
        if route and draw(st.booleans()):
            flows += [route[::-1]] * draw(counts)
    order = draw(st.permutations(range(len(flows))))
    return {fid: flows[index] for fid, index in enumerate(order)}


@settings(max_examples=150, deadline=None)
@given(path_multisets(), st.sampled_from((LINK_CAPACITY, 1.0, 0.1, 1.0 / 3.0)))
def test_pair_solver_is_bit_equal_to_the_per_flow_solver(paths, capacity):
    assert solve_pairs(paths, capacity) == naive_flow_rates(paths, capacity)


@settings(max_examples=150, deadline=None)
@given(path_multisets(), st.sampled_from((LINK_CAPACITY, 1.0, 1.0 / 3.0)), st.randoms())
def test_rates_do_not_depend_on_the_order_of_pairs_or_link_lists(paths, capacity, rng):
    """The engine's per-link lists are ordered sets that fill and empty
    as pairs come and go; the solver must not read their order."""
    shuffled = solve_pairs(paths, capacity, shuffle=rng.shuffle)
    assert shuffled == solve_pairs(paths, capacity) == naive_flow_rates(paths, capacity)


def test_equal_shares_break_on_the_lower_link_key():
    """Links (0, 2) and (1, 1) carry three flows each, one of them
    common: both offer 1/3.  The lower key freezes first, and what it
    leaves the other link's two flows is not 1/3 in floats -- so the
    tie-break is visible in the rates, whichever path is listed first."""
    low, high = (0, 2), (1, 1)
    third = 1.0 / 3.0
    for paths in (
        {0: (low,), 1: (low,), 2: (low, high), 3: (high,), 4: (high,)},
        {4: (high,), 3: (high,), 2: (high, low), 1: (low,), 0: (low,)},
    ):
        rates = solve_pairs(paths, 1.0)
        assert rates == naive_flow_rates(paths, 1.0)
        assert rates[0] == rates[1] == rates[2] == third
        assert rates[3] == rates[4] == (1.0 - third) / 2 != third


def test_a_pair_subtracts_its_share_once_per_flow():
    """Ten flows share the tight link at 0.1 each; the three that go on
    over the wide link leave it ``1.0 - 0.1 - 0.1 - 0.1`` for its one
    other flow, which is not ``1.0 - 0.1 * 3`` in floats."""
    tight, wide = (0, 1), (0, 2)
    paths = {fid: (tight,) for fid in range(7)}
    paths.update({7: (tight, wide), 8: (tight, wide), 9: (tight, wide), 10: (wide,)})
    rates = solve_pairs(paths, 1.0)
    assert rates == naive_flow_rates(paths, 1.0)
    assert rates[10] == 1.0 - 0.1 - 0.1 - 0.1 != 1.0 - 0.1 * 3
