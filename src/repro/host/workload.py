"""Traffic generators and sinks for the experiments.

The paper motivates Autonet with two workload classes (section 1):
request/response protocols such as RPC, where latency matters, and
bulk-data transfer, where throughput matters.  The benches also use
permutation traffic -- every host sending to a distinct partner -- to
exercise the aggregate-bandwidth claim, and broadcast traffic for the
flood experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.constants import MS
from repro.host.localnet import LocalNet
from repro.net.packet import Packet
from repro.types import Uid

#: a call's request and reply sizes: a small RPC (section 1)
RPC_REQUEST_BYTES = 128
RPC_RESPONSE_BYTES = 512


class Sink:
    """Counts datagrams arriving at a LocalNet instance."""

    def __init__(self, localnet: LocalNet) -> None:
        self.sim = localnet.sim
        self.count = 0
        self.bytes = 0
        self.latencies_ns: List[int] = []
        localnet.on_datagram = self._arrive

    def _arrive(self, src_uid: Uid, ethertype: int, data_bytes: int, packet: Packet) -> None:
        self.count += 1
        self.bytes += data_bytes
        if packet.created_at:
            self.latencies_ns.append(self.sim.now - packet.created_at)

    def mean_latency_ns(self) -> float:
        return sum(self.latencies_ns) / len(self.latencies_ns) if self.latencies_ns else 0.0


class PeriodicSender:
    """Open-loop sender: one datagram to a fixed destination per period."""

    def __init__(
        self,
        localnet: LocalNet,
        dest_uid: Uid,
        data_bytes: int,
        period_ns: int,
        count: Optional[int] = None,
    ) -> None:
        self.localnet = localnet
        self.sim = localnet.sim
        self.dest_uid = dest_uid
        self.data_bytes = data_bytes
        self.period_ns = period_ns
        self.remaining = count
        self.attempted = 0
        self.accepted = 0
        self._stopped = False
        self.sim.call_soon(self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped or (self.remaining is not None and self.attempted >= self.remaining):
            return
        self.attempted += 1
        if self.localnet.send(self.dest_uid, self.data_bytes):
            self.accepted += 1
        self.sim.after(self.period_ns, self._tick)


@dataclass
class RpcRequest:
    """A call: the server answers with ``response_bytes`` of reply."""

    rpc_id: int
    response_bytes: int


@dataclass
class RpcResponse:
    """The matching reply for one outstanding call."""

    rpc_id: int


class RpcServer:
    """Echoes a response for every request datagram received."""

    def __init__(self, localnet: LocalNet) -> None:
        self.localnet = localnet
        localnet.on_datagram = self._serve

    def _serve(self, src_uid: Uid, ethertype: int, data_bytes: int, packet: Packet) -> None:
        request = packet.payload
        if not isinstance(request, RpcRequest):
            return
        self.localnet.send(
            src_uid, request.response_bytes, payload=RpcResponse(rpc_id=request.rpc_id)
        )


class RpcClient:
    """Closed-loop RPC client: issues the next call when the previous one
    completes (or times out), recording latency and outage gaps."""

    def __init__(
        self,
        localnet: LocalNet,
        server_uid: Uid,
        timeout_ns: int = 500 * MS,
        think_ns: int = 0,
    ) -> None:
        self.localnet = localnet
        self.sim = localnet.sim
        self.server_uid = server_uid
        self.request_bytes = RPC_REQUEST_BYTES
        self.response_bytes = RPC_RESPONSE_BYTES
        self.timeout_ns = timeout_ns
        self.think_ns = think_ns
        self.completed = 0
        self.timeouts = 0
        self.latencies_ns: List[int] = []
        #: timestamps of successful completions, for outage analysis
        self.completion_times: List[int] = []
        #: the last call id this client issued (only its own replies match)
        self._rpc_ids = 0
        self._outstanding: Optional[int] = None
        self._issued_at = 0
        self._stopped = False
        localnet.on_datagram = self._receive
        self.sim.call_soon(self._issue)

    def stop(self) -> None:
        self._stopped = True

    def _issue(self) -> None:
        if self._stopped:
            return
        self._rpc_ids += 1
        rpc_id = self._outstanding = self._rpc_ids
        self._issued_at = self.sim.now
        self.localnet.send(
            self.server_uid,
            self.request_bytes,
            payload=RpcRequest(rpc_id=rpc_id, response_bytes=self.response_bytes),
        )
        self.sim.after(self.timeout_ns, self._maybe_timeout, rpc_id)

    def _maybe_timeout(self, rpc_id: int) -> None:
        if self._outstanding == rpc_id:
            self.timeouts += 1
            self._outstanding = None
            self._issue()

    def _receive(self, src_uid: Uid, ethertype: int, data_bytes: int, packet: Packet) -> None:
        response = packet.payload
        if not isinstance(response, RpcResponse) or response.rpc_id != self._outstanding:
            return
        self._outstanding = None
        self.completed += 1
        self.latencies_ns.append(self.sim.now - self._issued_at)
        self.completion_times.append(self.sim.now)
        if self.think_ns:
            self.sim.after(self.think_ns, self._issue)
        else:
            self.sim.call_soon(self._issue)

    def longest_gap_ns(self) -> int:
        """Largest interval between successive completions (outage size)."""
        times = self.completion_times
        if len(times) < 2:
            return 0
        return max(b - a for a, b in zip(times, times[1:]))
