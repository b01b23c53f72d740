"""Naive per-flow reference for the fluid rate solver.

This is ``repro.traffic.fluid.solve_rates`` as ``src/`` had it before the
rate plan was kept per switch pair: one entry per flow, ``link_flows`` /
``pending`` / the tuple-keyed ``remaining`` dict rebuilt on every call.
It is kept verbatim, slow and obvious, as the oracle the pair solver is
pinned to with ``==`` on floats (``tests/traffic/test_fluid_oracle.py``,
``tests/traffic/test_pair_plan.py``).  :func:`solve_pairs` runs the pair
solver on the same input so both tests compare like with like.  Nothing
under ``src/`` may import this module.
"""

from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

from repro.traffic import fluid
from repro.traffic.fluid import LINK_CAPACITY, Pair, solve_rates

#: a flow's path: canonical link keys ((switch index, port) of the
#: lower-indexed end), empty tuple for same-switch delivery
PathKey = Tuple[Tuple[int, int], ...]


def naive_solve_rates(
    paths: Dict[int, PathKey],
    capacity: float = LINK_CAPACITY,
) -> Dict[int, float]:
    """Max-min fair rates (bytes/ns) for ``flow_id -> path``.

    Classic progressive filling: repeatedly find the tightest link
    (least remaining capacity per unfixed flow), freeze its flows at
    that fair share, and subtract.  Same-switch flows (empty path) run
    at access line rate.
    """
    rates: Dict[int, float] = {}
    link_flows: Dict[Tuple[int, int], List[int]] = {}
    for fid, path in paths.items():
        if not path:
            rates[fid] = capacity
            continue
        for key in path:
            link_flows.setdefault(key, []).append(fid)
    remaining = {key: capacity for key in link_flows}
    unfixed = {key: len(flows) for key, flows in link_flows.items()}
    pending = {fid for fid, path in paths.items() if path}
    while pending:
        bottleneck = None
        share = None
        for key, count in unfixed.items():
            if count <= 0:
                continue
            s = remaining[key] / count
            if share is None or s < share or (s == share and key < bottleneck):
                bottleneck, share = key, s
        if bottleneck is None:
            break
        for fid in link_flows[bottleneck]:
            if fid not in pending:
                continue
            rates[fid] = share
            pending.discard(fid)
            for key in paths[fid]:
                remaining[key] -= share
                unfixed[key] -= 1
    return rates


def naive_flow_rates(
    paths: Dict[int, Optional[PathKey]], capacity: float = LINK_CAPACITY
) -> Dict[int, float]:
    """What the per-flow engine assigned: the naive solve over the routed
    flows, 0.0 for a flow whose walk found no route (``None``)."""
    rates = naive_solve_rates(
        {fid: path for fid, path in paths.items() if path is not None}, capacity
    )
    return {fid: rates.get(fid, 0.0) for fid in paths}


def solve_pairs(
    paths: Dict[int, Optional[PathKey]],
    capacity: float = LINK_CAPACITY,
    shuffle: Optional[Callable[[list], None]] = None,
) -> Dict[int, float]:
    """The pair solver on per-flow input: flows with equal paths fold
    into one :class:`Pair` with a count, link keys are interned in key
    order (so an id comparison is a key comparison), the per-link pair
    lists and loads are built as the engine keeps them, and every flow
    reads its pair's rate.  ``shuffle``, if given, reorders the pairs and
    each link's list in place before the solve, which offers ``capacity``
    on every link as ``fluid.LINK_CAPACITY``."""
    keys = sorted({key for path in paths.values() if path for key in path})
    ids = {key: i for i, key in enumerate(keys)}
    pairs: Dict[Optional[PathKey], Pair] = {}
    for path in paths.values():
        pair = pairs.get(path)
        if pair is None:
            pair = pairs[path] = Pair((0, 0))
            pair.links = None if path is None else tuple(ids[key] for key in path)
        pair.count += 1
    crossing: List[List[Pair]] = [[] for _ in keys]
    load = [0] * len(keys)
    for pair in pairs.values():
        for link in pair.links or ():
            if pair not in crossing[link]:
                crossing[link].append(pair)
            load[link] += pair.count
    order = list(pairs.values())
    if shuffle is not None:
        shuffle(order)
        for listed in crossing:
            shuffle(listed)
    with mock.patch.object(fluid, "LINK_CAPACITY", capacity):
        solve_rates(order, crossing, load)
    return {fid: pairs[path].rate for fid, path in paths.items()}
