"""Topology recovery over SRP (section 6.7).

The paper built "a protocol to recover the physical network topology and
the current spanning tree" on top of the source-routed protocol --
exactly what an operator needs when the configured state is suspect,
because SRP works even while routing is down.  :class:`NetworkExplorer`
crawls outward from one switch, one hop of source route at a time, and
reconstructs the topology and tree entirely from the per-switch answers
(never consulting the simulation's global state).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.messages import SrpMessage
from repro.core.topo import NetLink, PortRef, SwitchRecord, TopologyMap
from repro.core.treepos import TreePosition
from repro.types import Uid


@dataclass
class ExplorationResult:
    """What the crawl discovered."""

    topology: TopologyMap
    #: source route (outbound port lists) to each discovered switch
    routes: Dict[Uid, Tuple[int, ...]] = field(default_factory=dict)
    queries: int = 0


#: how long one query waits for its reply
QUERY_TIMEOUT_NS = 200_000_000


class NetworkExplorer:
    """Crawls a live network via SRP from one switch's control processor."""

    def __init__(self, network, origin: int = 0) -> None:
        self.network = network
        self.origin = origin

    def _query(self, route: Tuple[int, ...]) -> Optional[dict]:
        """Issue one get-neighbors query and run the simulation until the
        reply returns (or a timeout passes)."""
        replies: List[SrpMessage] = []
        ap = self.network.autopilots[self.origin]
        ap.srp.handle(
            0,
            SrpMessage(
                epoch=0,
                sender_uid=ap.uid,
                msg_id=ap.sim.new_msg_id(),
                route=route,
                command="get-neighbors",
                payload=replies.append,
            ),
        )
        deadline = self.network.sim.now + QUERY_TIMEOUT_NS
        while not replies and self.network.sim.now < deadline:
            self.network.sim.run_for(QUERY_TIMEOUT_NS // 20)
        return replies[0].response if replies else None

    def explore(self) -> ExplorationResult:
        """Breadth-first crawl; returns the recovered topology."""
        origin_info = self._query(())
        if origin_info is None:
            raise RuntimeError("origin switch did not answer SRP")

        switches: Dict[Uid, dict] = {origin_info["uid"]: origin_info}
        routes: Dict[Uid, Tuple[int, ...]] = {origin_info["uid"]: ()}
        queries = 1
        frontier = deque([origin_info["uid"]])
        links: Set[NetLink] = set()

        while frontier:
            uid = frontier.popleft()
            info = switches[uid]
            for port, (far_uid, far_port) in sorted(info["neighbors"].items()):
                links.add(NetLink(PortRef(uid, port), PortRef(far_uid, far_port)))
                if far_uid in switches:
                    continue
                route = routes[uid] + (port,)
                reply = self._query(route)
                queries += 1
                if reply is None:
                    continue  # unreachable right now; a later route may work
                switches[reply["uid"]] = reply
                routes[reply["uid"]] = route
                frontier.append(reply["uid"])

        topology = TopologyMap(root=self._root_of(switches), links=links)
        for uid, info in switches.items():
            position: TreePosition = info["position"]
            topology.switches[uid] = SwitchRecord(
                uid=uid,
                level=position.level,
                parent_port=position.parent_port,
                parent_uid=position.parent_uid,
                host_ports=frozenset(info["host_ports"]),
                proposed_number=info["number"],
            )
            topology.numbers[uid] = info["number"]
        return ExplorationResult(topology=topology, routes=routes, queries=queries)

    @staticmethod
    def _root_of(switches: Dict[Uid, dict]) -> Uid:
        roots = {info["position"].root for info in switches.values()}
        if len(roots) != 1:
            raise RuntimeError(f"switches disagree on the root: {roots}")
        return roots.pop()
