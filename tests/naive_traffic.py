"""Naive per-packet reference for the fluid traffic model.

``src/`` prices a workload with max-min fair rate shares over the live
forwarding tables and never sends a packet.  This is the obvious, slow
ground truth it is held to: every logical host becomes a real
:class:`~repro.host.controller.HostController` on a free switch port
with a :class:`~repro.host.localnet.LocalNet` on top, and every flow of
the *same* ``generate_flows`` output is sent as a train of chunked client
datagrams paced at access line rate -- open loop, no retransmission,
exactly the offered-load semantics the fluid model integrates.  The flow
id rides in ``Packet.payload`` so the receiving sink can demultiplex
deliveries back onto flows; drops by cause come from the host
controllers' own counters.  Only viable when every logical host can
claim a free port (ring-4 in ``tests/traffic/test_packet_cross.py``).
Nothing under ``src/`` may import this module (``tests/naive_routing.py``
and ``tests/naive_registers.py`` are the same pattern).
"""

from repro.constants import AUTONET_HEADER_BYTES, BYTE_TIME_NS, CRC_BYTES, MS
from repro.host.localnet import LocalNet
from repro.net.packet import ETHERNET_HEADER_BYTES
from repro.obs.inband import exact_quantile
from repro.traffic.workload import generate_flows, host_switch

#: data bytes per chunk datagram (well under MAX_DATA_BYTES)
CHUNK_DATA_BYTES = 16_384

#: retry pacing when LocalNet refuses a send (driver not ready, ARP
#: outstanding, tx buffer full)
RETRY_NS = 5 * MS


class PacketWorkload:
    """Real hosts sending the workload ``Network(traffic=config)`` with
    the same seed would have priced."""

    def __init__(self, network, config) -> None:
        self.network = network
        self.sim = network.sim
        # the stream TrafficEngine draws from, so both sides see one matrix
        self.flows = generate_flows(config, network.rng.fork("traffic").stream("workload"))
        self.sent = {f.flow_id: 0 for f in self.flows}
        self.delivered = {f.flow_id: 0 for f in self.flows}
        self.latency_ns = {}
        self._launch_ns = 0
        self.localnets = []
        free = {
            i: [p for p in sorted(sw.ports, reverse=True) if not sw.ports[p].connected]
            for i, sw in enumerate(network.switches)
        }
        for host in range(config.hosts):
            sw = host_switch(host, len(network.switches))
            if not free[sw]:
                raise ValueError(f"no free port on sw{sw} for logical host {host}")
            network.add_host(f"tr{host}", [(sw, free[sw].pop(0))])
            localnet = LocalNet(network.drivers[f"tr{host}"])
            localnet.on_datagram = self._sink
            self.localnets.append(localnet)

    def launch(self) -> None:
        """Flows arrive relative to *now* (call after convergence)."""
        self._launch_ns = self.sim.now
        for localnet in self.localnets:
            localnet.driver.kick()  # learn short addresses now, not in 2 s
        for flow in self.flows:
            self.sim.at(self._launch_ns + flow.arrival_ns, self._send_chunk, flow)

    def _send_chunk(self, flow) -> None:
        sent = self.sent[flow.flow_id]
        if flow.flow_id in self.latency_ns or sent >= flow.size_bytes:
            return  # done, or everything is on (or lost in) the wire
        chunk = min(CHUNK_DATA_BYTES, flow.size_bytes - sent)
        dest = self.localnets[flow.dst_host].uid
        if self.localnets[flow.src_host].send(dest, chunk, payload=flow.flow_id):
            self.sent[flow.flow_id] = sent + chunk
            wire = AUTONET_HEADER_BYTES + ETHERNET_HEADER_BYTES + chunk + CRC_BYTES
            self.sim.after(wire * BYTE_TIME_NS, self._send_chunk, flow)
        else:
            self.sim.after(RETRY_NS, self._send_chunk, flow)

    def _sink(self, src_uid, ethertype, data_bytes, packet) -> None:
        fid = packet.payload
        if not isinstance(fid, int) or fid not in self.delivered or fid in self.latency_ns:
            return
        self.delivered[fid] += data_bytes
        flow = self.flows[fid]
        if self.delivered[fid] >= flow.size_bytes:
            self.latency_ns[fid] = self.sim.now - (self._launch_ns + flow.arrival_ns)

    def drops(self):
        """Datagram losses by cause, from the host controllers' counters."""
        hosts = [ln.driver.controller for ln in self.localnets]
        causes = {
            "crc": sum(h.crc_errors for h in hosts),
            "rx-buffer-full": sum(h.packets_dropped_rx for h in hosts),
        }
        return {cause: count for cause, count in causes.items() if count}

    def document(self):
        """The fields of a ``repro.traffic/1`` document both models define."""
        latencies = list(self.latency_ns.values())
        return {
            "generated_flows": len(self.flows),
            "flows_completed": len(self.latency_ns),
            "delivered_bytes": float(sum(self.delivered.values())),
            "latency": {
                "count": len(latencies),
                "p50_ns": exact_quantile(latencies, 0.5),
                "p99_ns": exact_quantile(latencies, 0.99),
            },
            "drops": self.drops(),
            "flows_sample": [
                {
                    "flow_id": f.flow_id,
                    "src_host": f.src_host,
                    "dst_host": f.dst_host,
                    "size_bytes": f.size_bytes,
                }
                for f in self.flows
            ],
        }
