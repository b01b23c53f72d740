"""The one measured scenario: converge -> load -> cut -> reconverge.

The paper's headline measurement (section 6.6.5: a single-link failure
on the SRC LAN is configured around in 170-500 ms) is one scenario
measured one way.  :func:`drive_scenario` is that scenario -- boot to
convergence, run load, cut cables, reconverge, run load again -- and
:class:`ScenarioResult` is the only place a run is turned into numbers,
so the CLIs (``repro.obs``, ``repro.traffic``) and the benches cannot
drift apart on what "how long did that take" means.  :func:`attach_pair`
is the standard host workload those callers put on the installation
first.  The other shared pieces of CLI behavior live
here too: :func:`parse_cut` (the ``--cut A-B`` argument type) and
:func:`fmt_ns` (durations in reports).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.constants import SEC


def parse_cut(text: str) -> Tuple[int, int]:
    """argparse type for ``--cut A-B``: two switch indices."""
    try:
        a, b = text.split("-", 1)
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a cut like 0-1 (two switch indices), got {text!r}"
        ) from exc


def fmt_ns(value: Optional[float]) -> str:
    """A duration in the largest unit that keeps it readable."""
    if value is None:
        return "-"
    if value < 1_000:
        return f"{value:.0f}ns"
    if value < 1_000_000:
        return f"{value / 1e3:.1f}us"
    if value < 1_000_000_000:
        return f"{value / 1e6:.1f}ms"
    return f"{value / 1e9:.3f}s"


@dataclass
class ScenarioResult:
    """What happened while driving one scenario, and what it measured.

    The measurements are taken at reconvergence, before the trailing
    load phase, so they price the cuts and not the load.  The ones read
    off an observer are None when that observer is off
    (``Network(telemetry=False)`` has no tracer, ``control=False`` no
    accounting) or when the run produced nothing to measure.

    "Reconfiguration time" has two definitions in this repo, kept side
    by side here so a caller has to pick one by name:

    * ``final_epoch_ns`` -- ``Network.epoch_duration()`` of the epoch the
      installation ended in: first tree-position packet of that epoch to
      its last forwarding-table load (section 6.6.5, the E-series tables);
    * ``reconfig_ns`` -- start of the first reconfiguration span the
      cuts triggered to the end of the last one, so a fault that takes
      several epochs to settle is charged for all of them (the
      ``bench_scaling`` curves).
    """

    converged: bool = False
    reconverged: bool = True
    cuts: List[Tuple[int, int]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: sim time the last boot-time epoch closed (tracer)
    converge_ns: Optional[int] = None
    final_epoch_ns: Optional[int] = None
    #: fault-span duration (tracer; None when the cuts opened no span)
    reconfig_ns: Optional[int] = None
    #: worst per-switch shutter-closed interval of the fault spans (tracer)
    blackout_ns: Optional[int] = None
    #: control-plane volume from the cut to reconvergence (control)
    control_packets: Optional[int] = None
    control_bytes: Optional[int] = None
    control_retx: Optional[int] = None


def drive_scenario(
    net,
    cuts: Sequence[Tuple[int, int]],
    load_ns: int = 0,
    timeout_ns: int = 60 * SEC,
) -> ScenarioResult:
    """Converge ``net``, run load, apply ``cuts``, reconverge, run load.

    If the network carries a traffic engine (``Network(traffic=...)``)
    that has not launched yet, the workload launches right after initial
    convergence -- measuring a *running* network's reconfiguration, not
    its boot.  ``load_ns`` simulated nanoseconds run on each side of the
    cut; warnings go to stderr and into the result.
    """
    result = ScenarioResult(cuts=list(cuts))

    def warn(message: str) -> None:
        result.warnings.append(message)
        print(f"warning: {message}", file=sys.stderr)

    result.converged = net.run_until_converged(timeout_ns=timeout_ns)
    if not result.converged:
        warn("initial configuration did not converge")
    tracer = net.tracer
    boot_epochs = set()
    if tracer is not None:
        spans = tracer.all_spans()
        boot_epochs = {s.key for s in spans}
        result.converge_ns = max((s.end_ns for s in spans if s.closed), default=None)
    if net.traffic is not None and not net.traffic.launched:
        net.traffic.launch()
    if load_ns:
        net.run_for(load_ns)
    control = net.control
    if control is not None:
        before = (control.packets, control.bytes, control.retransmissions())
    for a, b in cuts:
        net.cut_link(a, b)
    if cuts:
        result.reconverged = net.run_until_converged(timeout_ns=timeout_ns)
        if not result.reconverged:
            warn("post-cut reconfiguration did not converge")

    result.final_epoch_ns = net.epoch_duration()
    if tracer is not None:
        fault = [s for s in tracer.all_spans() if s.key not in boot_epochs and s.closed]
        if fault:
            last = max(fault, key=lambda s: s.key)
            result.reconfig_ns = last.end_ns - min(s.start_ns for s in fault)
            result.blackout_ns = max(
                (
                    b["blackout_ns"]
                    for s in fault
                    for b in tracer.blackouts(s.key).values()
                    if b["blackout_ns"] is not None
                ),
                default=0,
            )
    if control is not None:
        result.control_packets = control.packets - before[0]
        result.control_bytes = control.bytes - before[1]
        result.control_retx = control.retransmissions() - before[2]
    if load_ns:
        net.run_for(load_ns)
    return result


def attach_pair(net, period_ns: int, data_bytes: int) -> list:
    """Put the standard host workload on ``net``: hosts ``h0``/``h1`` on
    the highest free port of switch 0 and of the switch half-way round
    the index space, each sending the other one ``data_bytes`` datagram
    every ``period_ns``.  Returns their two counting
    :class:`~repro.host.workload.Sink` objects, ``h0``'s first."""
    from repro.host.localnet import LocalNet
    from repro.host.workload import PeriodicSender, Sink

    localnets = []
    for i, sw in enumerate((0, len(net.switches) // 2)):
        ports = net.switches[sw].ports
        free = [p for p in ports if not ports[p].connected]
        if not free:
            raise ValueError(f"no free port on sw{sw} to attach a host")
        net.add_host(f"h{i}", [(sw, max(free))])
        localnets.append(LocalNet(net.drivers[f"h{i}"]))
    sinks = [Sink(localnet) for localnet in localnets]
    for localnet, peer in zip(localnets, reversed(localnets)):
        PeriodicSender(localnet, peer.uid, data_bytes, period_ns)
    return sinks
