"""Open-loop flow workloads: seeded arrival processes over logical hosts.

The traffic engine models *logical* hosts -- hundreds to thousands of
senders multiplexed onto the installation's switches without paying for
a controller object each (``host h`` pins to ``switch h % n_switches``,
the same dual-homing-free simplification E1 uses for its probe hosts).
A workload is a deterministic list of :class:`Flow` records drawn from
one of four open-loop arrival processes:

* ``uniform`` -- Poisson arrivals, uniformly random source/destination
  pairs (the all-to-all background the paper's LAN carried);
* ``hotspot`` -- 80% of flows target a small hot set of destination
  hosts (~5% of the population), the skew production fabrics actually
  see;
* ``incast`` -- every flow targets one victim host, arrivals clumped
  into bursts (the many-to-one pattern that fills the victim's FIFO);
* ``diurnal`` -- uniform pairs with arrival rate modulated by a fixed
  day-shape profile, so load ramps rather than steps.

Everything is drawn from one ``random.Random`` stream handed in by the
caller (the engine forks it from the installation's
:class:`~repro.sim.rng.RngRegistry` via ``child_seed``), so a workload
is a pure function of (seed, config, switch count) and replays
bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.constants import MS, SEC

#: the supported arrival processes, in documentation order
ARRIVAL_PATTERNS = ("uniform", "hotspot", "incast", "diurnal")

#: relative arrival-rate profile over the diurnal "day" (12 equal slots)
DIURNAL_PROFILE = (0.3, 0.2, 0.15, 0.2, 0.4, 0.7, 1.0, 1.3, 1.5, 1.4, 1.1, 0.7)

#: fraction of hotspot flows aimed at the hot set, and the set's size
HOTSPOT_FRACTION = 0.8
HOTSPOT_SET_DIVISOR = 20

#: incast burst shaping: mean flows per burst and intra-burst jitter
INCAST_BURST_FLOWS = 50
INCAST_JITTER_NS = 1 * MS

#: floor and ceiling on drawn flow sizes (bytes)
MIN_FLOW_BYTES = 512
MAX_FLOW_SIZE_MULTIPLE = 64


@dataclass(frozen=True)
class Flow:
    """One offered flow: ``size_bytes`` from ``src_host`` to
    ``dst_host``, arriving ``arrival_ns`` after the workload launches."""

    flow_id: int
    arrival_ns: int
    src_host: int
    dst_host: int
    size_bytes: int


@dataclass
class TrafficConfig:
    """The workload ``Network(traffic=...)`` offers: what is drawn, not
    how the engine paces itself (those are constants of
    :mod:`repro.traffic.engine`)."""

    pattern: str = "hotspot"
    flows: int = 1000
    hosts: int = 500
    mean_flow_bytes: int = 131_072
    #: arrival window: flows arrive within this span after launch()
    duration_ns: int = 2 * SEC

    def __post_init__(self) -> None:
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival pattern {self.pattern!r}; "
                f"expected one of {ARRIVAL_PATTERNS}"
            )
        if self.flows < 0 or self.hosts < 1:
            raise ValueError("traffic needs flows >= 0 and hosts >= 1")


def host_switch(host: int, n_switches: int) -> int:
    """The switch a logical host pins to (deterministic round-robin)."""
    return host % n_switches


def _draw_size(rng: random.Random, mean_bytes: int) -> int:
    size = int(rng.expovariate(1.0 / mean_bytes))
    return max(MIN_FLOW_BYTES, min(size, mean_bytes * MAX_FLOW_SIZE_MULTIPLE))


def _uniform_pair(rng: random.Random, hosts: int) -> tuple:
    src = rng.randrange(hosts)
    dst = rng.randrange(hosts - 1) if hosts > 1 else 0
    if hosts > 1 and dst >= src:
        dst += 1
    return src, dst


def _poisson_arrivals(rng: random.Random, flows: int, duration_ns: int) -> List[int]:
    rate = flows / duration_ns if duration_ns > 0 else 0.0
    t = 0.0
    out = []
    for _ in range(flows):
        t += rng.expovariate(rate) if rate > 0 else 0.0
        out.append(min(int(t), duration_ns))
    return out

def _diurnal_arrivals(rng: random.Random, flows: int, duration_ns: int) -> List[int]:
    total = sum(DIURNAL_PROFILE)
    slot_ns = duration_ns / len(DIURNAL_PROFILE)
    out = []
    for _ in range(flows):
        pick = rng.random() * total
        cumulative = 0.0
        for slot, weight in enumerate(DIURNAL_PROFILE):
            cumulative += weight
            if pick <= cumulative:
                out.append(min(int((slot + rng.random()) * slot_ns), duration_ns))
                break
    return sorted(out)


def generate_flows(config: TrafficConfig, rng: random.Random) -> List[Flow]:
    """The deterministic traffic matrix: ``config.flows`` flows over
    ``config.hosts`` logical hosts, drawn entirely from ``rng``."""
    flows = config.flows
    hosts = config.hosts
    records: List[tuple] = []

    if config.pattern in ("uniform", "diurnal"):
        arrive = _poisson_arrivals if config.pattern == "uniform" else _diurnal_arrivals
        for t in arrive(rng, flows, config.duration_ns):
            src, dst = _uniform_pair(rng, hosts)
            records.append((t, src, dst, _draw_size(rng, config.mean_flow_bytes)))
    elif config.pattern == "hotspot":
        hot = rng.sample(range(hosts), max(1, hosts // HOTSPOT_SET_DIVISOR))
        for t in _poisson_arrivals(rng, flows, config.duration_ns):
            if rng.random() < HOTSPOT_FRACTION:
                dst = rng.choice(hot)
                src = rng.randrange(hosts)
                while hosts > 1 and src == dst:
                    src = rng.randrange(hosts)
            else:
                src, dst = _uniform_pair(rng, hosts)
            records.append((t, src, dst, _draw_size(rng, config.mean_flow_bytes)))
    else:  # incast
        victim = rng.randrange(hosts)
        n_bursts = max(1, flows // INCAST_BURST_FLOWS)
        burst_times = sorted(
            rng.randrange(max(1, config.duration_ns)) for _ in range(n_bursts)
        )
        for _ in range(flows):
            base = burst_times[rng.randrange(n_bursts)]
            t = min(base + rng.randrange(INCAST_JITTER_NS), config.duration_ns)
            src = rng.randrange(hosts)
            while hosts > 1 and src == victim:
                src = rng.randrange(hosts)
            records.append((t, src, victim, _draw_size(rng, config.mean_flow_bytes)))

    records.sort(key=lambda r: r[0])
    return [
        Flow(flow_id=i, arrival_ns=t, src_host=s, dst_host=d, size_bytes=size)
        for i, (t, s, d, size) in enumerate(records)
    ]
