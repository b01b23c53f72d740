"""The six workloads of the end-to-end benchmark.

Each workload is chosen to load the layers differently, so that an
optimisation of one layer has one workload that exercises it and one
that bypasses it (see README.md for the full table and the *why* of each):

==================  ==========================================================
reconfig_srclan     the paper's scenario: ``core`` + control-packet ``net``
steady_srclan       no fault: the status sampler dominates, no route builds
dataplane_torus     ``net`` + ``host`` only: per-packet then per-byte cost
chaos_torus         ``analysis`` + ``chaos`` + network builds around ``core``
traffic_srclan      the fluid traffic engine on top of workload 1's work
observed_torus      every observer attached and exported
==================  ==========================================================

A workload has three timed-or-not stages.  ``setup`` builds the
installation (host time reported as ``setup_s``), ``measure`` is the
timed phase (``wall_s``/``cpu_s``), and ``finish`` -- untimed -- checks
the outputs and extracts the *modelled* results: sim-time numbers that
hold no wall-clock value and must repeat exactly for a given seed.

Inputs are drawn by the parent process from ``random.Random(seed)``
(:func:`make_inputs`); the program under test receives only those
generated inputs plus ``Network(seed=seed)``.  Seeded choices are kept
to ones that change *which* work is done, not *how much*, so runs with
different seeds remain comparable.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from estimators import nearest_rank

SEC = 1_000_000_000
MS = 1_000_000
US = 1_000

#: liveness deadline for every wait in a workload (simulated time)
TIMEOUT_NS = 60 * SEC

WORKLOAD_NAMES = (
    "reconfig_srclan",
    "steady_srclan",
    "dataplane_torus",
    "chaos_torus",
    "traffic_srclan",
    "observed_torus",
)


@dataclass
class RoundResult:
    """What one round of one workload produced (no wall-clock inside)."""

    attempted: int
    failed: int
    #: sim-time outputs; hashed into the round's modelled fingerprint
    model: Dict[str, Any]
    #: the ``model.*`` metrics this workload defines (others report 0)
    headline: Dict[str, float] = field(default_factory=dict)
    #: invariant violations reported by the program's own sweeps
    violations: int = 0
    #: one line per failed check, for the human report
    notes: List[str] = field(default_factory=list)


@dataclass
class _State:
    """Everything a round carries from setup through finish."""

    inputs: Dict[str, Any]
    out_dir: str
    net: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


# -- input generation (parent process) -------------------------------------------


def _sizes(name: str, quick: bool) -> Dict[str, Any]:
    """Workload sizes: the committed ones, or tiny ones for the smoke test."""
    full = {
        "reconfig_srclan": {"topology": "src-lan-30", "cycles": 2},
        "steady_srclan": {"topology": "src-lan-30", "seconds": 8},
        "dataplane_torus": {
            "topology": "torus-3x4",
            # (data bytes, period ns, packets per host): small packets where
            # per-packet cost dominates, then large ones where bytes dominate
            "phases": [[64, 20 * US, 300], [1500, 330 * US, 300]],
        },
        "chaos_torus": {"topology": "torus-3x4", "schedules": 1},
        "traffic_srclan": {
            "topology": "src-lan-30",
            "traffic": {
                "pattern": "hotspot",
                "flows": 1600,
                "hosts": 500,
                "duration_ns": 1 * SEC,
            },
            "load_ns": 500 * MS,
        },
        "observed_torus": {
            "topology": "torus-3x4",
            "bytes": 512,
            "period_ns": 4 * MS,
            "load_ns": 100 * MS,
        },
    }
    tiny = {
        "reconfig_srclan": {"topology": "ring-4", "cycles": 1},
        "steady_srclan": {"topology": "ring-4", "seconds": 1},
        "dataplane_torus": {
            "topology": "mesh-2x2",
            "phases": [[64, 20 * US, 40], [1500, 155 * US, 40]],
        },
        "chaos_torus": {"topology": "mesh-2x3", "schedules": 1},
        "traffic_srclan": {
            "topology": "ring-4",
            "traffic": {
                "pattern": "hotspot",
                "flows": 60,
                "hosts": 20,
                "duration_ns": 200 * MS,
            },
            "load_ns": 200 * MS,
        },
        "observed_torus": {
            "topology": "mesh-2x2",
            "bytes": 512,
            "period_ns": 2 * MS,
            "load_ns": 50 * MS,
        },
    }
    return (tiny if quick else full)[name]


def _switch_pairs(spec) -> List[Tuple[int, int]]:
    return sorted({(min(a, b), max(a, b)) for a, _pa, b, _pb in spec.cables if a != b})


def _hop_distances(spec) -> List[List[int]]:
    """All-pairs hop counts over the switch graph (breadth-first)."""
    neighbours: List[List[int]] = [[] for _ in range(spec.n_switches)]
    for a, b in _switch_pairs(spec):
        neighbours[a].append(b)
        neighbours[b].append(a)
    table = []
    for source in range(spec.n_switches):
        hops = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for near in frontier:
                for far in neighbours[near]:
                    if far not in hops:
                        hops[far] = hops[near] + 1
                        reached.append(far)
            frontier = reached
        table.append([hops[i] for i in range(spec.n_switches)])
    return table


def _permutation(rng: random.Random, spec, candidates: int = 64) -> List[int]:
    """A seeded permutation with no fixed point and a *typical* total path
    length: of ``candidates`` seeded draws, the first whose summed hop
    distance is nearest the expectation.

    Packets x hops is what a data-plane round costs; unconstrained, two
    seeds differ by 28 % in dispatched events, constrained by 2 %.
    """
    n = spec.n_switches
    hops = _hop_distances(spec)
    typical = sum(map(sum, hops)) / (n - 1)
    drawn = []
    while len(drawn) < candidates:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(i != p for i, p in enumerate(perm)):
            drawn.append(perm)
    return min(drawn, key=lambda perm: abs(sum(hops[i][p] for i, p in enumerate(perm)) - typical))


def _chaos_schedule(rng: random.Random, spec, index: int) -> Dict[str, Any]:
    """One fault schedule of fixed *shape* with seeded targets and jitter.

    The library's random sampler draws 3 to 8 events of random kinds, so
    two seeds differ by 2x in work; a benchmark input has to be comparable
    across seeds.  The shape -- cut, crash, flap train, restart, restore
    -- still drives ``core`` through crash/restart and the skeptics.
    """
    from repro.chaos.events import CrashSwitch, CutLink, FlapLink, RestartSwitch, RestoreLink
    from repro.chaos.schedule import Schedule

    cut, flap = rng.sample(_switch_pairs(spec), 2)
    victim = rng.randrange(spec.n_switches)

    def at(ms: int) -> int:
        return ms * MS + rng.randrange(0, 40 * MS)

    events = [
        CutLink(at_ns=at(100), a=cut[0], b=cut[1]),
        CrashSwitch(at_ns=at(400), index=victim),
        FlapLink(at_ns=at(700), a=flap[0], b=flap[1], flaps=2, period_ns=100 * MS),
        RestartSwitch(at_ns=at(1300), index=victim),
        RestoreLink(at_ns=at(1500), a=cut[0], b=cut[1]),
    ]
    schedule = Schedule(
        topology=spec.name,
        seed=rng.randrange(1 << 31),
        events=events,
        name=f"bench-{index:02d}",
    )
    return schedule.to_dict()


def make_inputs(name: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """Draw one workload's inputs from ``random.Random(seed)``."""
    from repro.topology.generators import resolve_topology

    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
    rng = random.Random(seed)
    inputs = dict(_sizes(name, quick))
    inputs["net_seed"] = seed
    spec = resolve_topology(inputs["topology"])
    if name == "reconfig_srclan":
        cables = rng.sample(sorted(spec.cables), inputs.pop("cycles"))
        inputs["cables"] = [list(cable) for cable in cables]
    elif name in ("dataplane_torus", "observed_torus"):
        inputs["host_ports"] = [rng.choice(spec.free_ports(i)) for i in range(spec.n_switches)]
        inputs["perm"] = _permutation(rng, spec)
        if name == "observed_torus":
            inputs["cut"] = list(_switch_pairs(spec)[0])
    elif name == "chaos_torus":
        count = inputs.pop("schedules")
        inputs["schedules"] = [_chaos_schedule(rng, spec, i) for i in range(count)]
    elif name == "traffic_srclan":
        # Network(seed) also draws the flows, and their heavy-tailed sizes
        # move the solver's work by 7 % from seed to seed (the cut: 2.6 %,
        # the noise floor), so the flows are pinned and the cut is seeded
        inputs["net_seed"] = 0
        inputs["cut"] = list(rng.choice(_switch_pairs(spec)))
    return inputs


# -- shared helpers (child process) ----------------------------------------------


def _build(inputs: Dict[str, Any], **observers: Any):
    """``resolve_topology`` + ``Network``; both looked up at call time so
    the traced round's wrappers see them."""
    from repro import network
    from repro.topology import generators

    spec = generators.resolve_topology(inputs["topology"])
    return network.Network(spec, seed=inputs["net_seed"], **observers)


def _epoch_durations(net) -> List[List[int]]:
    """[epoch, duration_ns] of every closed reconfiguration span."""
    return [[span.key, span.duration_ns] for span in net.tracer.finished_spans()]


def _median_ms(durations_ns: Sequence[int]) -> float:
    return nearest_rank(durations_ns, 0.5) / MS if durations_ns else 0.0


def _prepare_hosts(net, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """One single-homed host per switch on its seeded port, booted and
    ready to send: ``localnets``, ``uids``, ``sinks`` and a ``ready`` flag.

    The boot-time address probe is lost while the switches configure, so
    each driver is kicked after convergence; then every destination sends
    its source one small datagram so the measured phase runs on learned
    unicast addresses instead of the broadcast fallback.  Sinks attach
    after that warm-up, so only measured packets count.
    """
    from repro.host.localnet import LocalNet
    from repro.host.workload import Sink

    names = [f"h{sw}" for sw in range(len(inputs["host_ports"]))]
    for sw, port in enumerate(inputs["host_ports"]):
        net.add_host(names[sw], [(sw, port)])
    drivers = [net.drivers[name] for name in names]
    localnets = [LocalNet(driver) for driver in drivers]
    uids = [net.hosts[name].uid for name in names]

    ready = net.run_until_converged(timeout_ns=TIMEOUT_NS)
    for driver in drivers:
        driver.kick()
    for _ in range(200):
        if all(driver.ready for driver in drivers):
            break
        net.run_for(1 * MS)
    else:
        ready = False
    for src, dst in enumerate(inputs["perm"]):
        localnets[dst].send(uids[src], 64)
    net.run_for(2 * MS)
    sinks = [Sink(localnet) for localnet in localnets]
    return {"localnets": localnets, "uids": uids, "sinks": sinks, "ready": ready}


def _start_senders(hosts: Dict[str, Any], perm, data_bytes, period_ns, count=None) -> List[Any]:
    from repro.host.workload import PeriodicSender

    return [
        PeriodicSender(hosts["localnets"][src], hosts["uids"][dst], data_bytes, period_ns, count)
        for src, dst in enumerate(perm)
    ]


def _drain(net, sinks, accepted: int) -> None:
    """Run until every accepted packet has arrived, or 100 ms have passed."""
    for _ in range(100):
        if sum(sink.count for sink in sinks) >= accepted:
            return
        net.run_for(1 * MS)


def _delivery_model(sinks, accepted: int, sent_bytes: int, sim_ns: int) -> Dict[str, Any]:
    latencies = sorted(lat for sink in sinks for lat in sink.latencies_ns)
    delivered_bytes = sum(sink.bytes for sink in sinks)
    return {
        "accepted": accepted,
        "accepted_bytes": sent_bytes,
        "delivered": sum(sink.count for sink in sinks),
        "delivered_bytes": delivered_bytes,
        "latency_samples": len(latencies),
        "p50_ns": nearest_rank(latencies, 0.5) if latencies else None,
        "p99_ns": nearest_rank(latencies, 0.99) if latencies else None,
        "measured_sim_ns": sim_ns,
    }


def _delivery_headline(model: Dict[str, Any]) -> Dict[str, float]:
    return {
        "model.delivery_p50_us": (model["p50_ns"] or 0) / US,
        "model.delivery_p99_us": (model["p99_ns"] or 0) / US,
        "model.goodput_mbps": model["delivered_bytes"] * 8 * 1000 / model["measured_sim_ns"],
        "model.delivered_ratio": model["delivered"] / model["accepted"],
    }


# -- 1. reconfig_srclan ----------------------------------------------------------


class ReconfigSrclan:
    """Boot-converge, then N x (cut a seeded cable, reconverge, restore,
    wait for the cable to be back in every switch's topology map)."""

    name = "reconfig_srclan"

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        return _State(inputs, out_dir, net=_build(inputs))

    def measure(self, state: _State) -> None:
        net = state.net
        ops = [net.run_until_converged(timeout_ns=TIMEOUT_NS)]
        for a, pa, b, pb in state.inputs["cables"]:
            net.cut_link(a, b)
            ops.append(net.run_until_converged(timeout_ns=TIMEOUT_NS))
            net.restore_link(a, b)
            ops.append(
                self._wait_link_back(net, a, pa, b, pb)
                and net.run_until_converged(timeout_ns=TIMEOUT_NS)
            )
        state.extra["ops"] = ops

    @staticmethod
    def _wait_link_back(net, a: int, pa: int, b: int, pb: int) -> bool:
        """True once the restored cable (skeptic hold-down served) is in
        every live switch's topology map."""
        from repro.core.topo import NetLink, PortRef

        uids = net.spec.uids
        link = NetLink(PortRef(uids[a], pa), PortRef(uids[b], pb))
        deadline = net.sim.now + TIMEOUT_NS
        while net.sim.now < deadline:
            net.run_for(50 * MS)
            maps = [ap.engine.topology for ap in net.alive_autopilots()]
            if all(topo is not None and link in topo.links for topo in maps):
                return True
        return False

    def finish(self, state: _State) -> RoundResult:
        from repro.chaos import checks

        net = state.net
        ops = state.extra["ops"]
        # oracle agreement and span hygiene only: the routing sweeps of
        # quiescent_checks take ~7 s on 30 switches (chaos_torus runs them)
        report = checks.check_oracle_agreement(net)
        report.merge(checks.check_spans(net))
        durations = _epoch_durations(net)
        topology = net.topology()
        if topology is None or len(topology.links) != len(net.spec.cables):
            report.fail("a restored cable is missing from the final topology")
        model = {
            "ops": ops,
            "epochs": durations,
            "final_epoch": net.current_epoch(),
            "final_links": sorted(repr(link) for link in topology.links) if topology else [],
            "violations": report.violations,
            "sim_ns": net.sim.now,
        }
        notes = [f"operation {i} timed out" for i, ok in enumerate(ops) if not ok]
        notes += report.violations
        return RoundResult(
            attempted=len(ops) + 1,
            failed=ops.count(False) + (0 if report.passed else 1),
            model=model,
            headline={"model.reconfig_ms": _median_ms([d for _e, d in durations])},
            violations=len(report.violations),
            notes=notes,
        )


# -- 2. steady_srclan ------------------------------------------------------------


class SteadySrclan:
    """A converged installation running N simulated seconds, no fault."""

    name = "steady_srclan"

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        state = _State(inputs, out_dir, net=_build(inputs))
        state.extra["booted"] = state.net.run_until_converged(timeout_ns=TIMEOUT_NS)
        state.extra["epoch"] = state.net.current_epoch()
        return state

    def measure(self, state: _State) -> None:
        net = state.net
        epoch = state.extra["epoch"]
        ops = []
        for _ in range(state.inputs["seconds"]):
            net.run_for(1 * SEC)
            ops.append(net.converged() and net.current_epoch() == epoch)
        state.extra["ops"] = ops

    def finish(self, state: _State) -> RoundResult:
        net = state.net
        ops = state.extra["ops"]
        model = {
            "booted": state.extra["booted"],
            "ops": ops,
            "epoch": net.current_epoch(),
            "cp_packets_handled": sum(ap.packets_handled for ap in net.autopilots),
            "sim_ns": net.sim.now,
        }
        notes = [f"second {i}: not converged or a new epoch" for i, ok in enumerate(ops) if not ok]
        if not state.extra["booted"]:
            notes.append("boot convergence timed out")
        failed = ops.count(False) if state.extra["booted"] else len(ops)
        return RoundResult(attempted=len(ops), failed=failed, model=model, notes=notes)


# -- 3. dataplane_torus ----------------------------------------------------------


class DataplaneTorus:
    """Seeded permutation traffic, observers off: small packets, then
    large ones, then drain.  Flow control makes the fabric lossless."""

    name = "dataplane_torus"

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        state = _State(inputs, out_dir, net=_build(inputs, telemetry=False))
        state.extra["hosts"] = _prepare_hosts(state.net, inputs)
        return state

    def measure(self, state: _State) -> None:
        net = state.net
        hosts = state.extra["hosts"]
        started = net.sim.now
        accepted = sent_bytes = 0
        for data_bytes, period_ns, count in state.inputs["phases"]:
            senders = _start_senders(hosts, state.inputs["perm"], data_bytes, period_ns, count)
            net.run_for(count * period_ns)
            sent = sum(sender.accepted for sender in senders)
            accepted += sent
            sent_bytes += data_bytes * sent
            _drain(net, hosts["sinks"], accepted)
        state.extra.update(accepted=accepted, sent_bytes=sent_bytes, sim_ns=net.sim.now - started)

    def finish(self, state: _State) -> RoundResult:
        extra = state.extra
        sinks = extra["hosts"]["sinks"]
        model = _delivery_model(sinks, extra["accepted"], extra["sent_bytes"], extra["sim_ns"])
        model["ready"] = extra["hosts"]["ready"]
        lost = model["accepted"] - model["delivered"]
        intact = model["delivered_bytes"] == model["accepted_bytes"]
        notes = []
        if not extra["hosts"]["ready"]:
            notes.append("hosts never learned their short addresses")
        if lost or not intact:
            notes.append(f"{lost} accepted packets not delivered intact after drain")
        return RoundResult(
            attempted=max(1, model["accepted"]),
            failed=abs(lost) or len(notes),
            model=model,
            headline=_delivery_headline(model) if model["accepted"] else {},
            notes=notes,
        )


# -- 4. chaos_torus --------------------------------------------------------------


class ChaosTorus:
    """Fault schedules through the chaos campaign runner: per-schedule
    network builds, ``converged()`` polling and the invariant sweeps."""

    name = "chaos_torus"

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        from repro.chaos.schedule import Schedule

        state = _State(inputs, out_dir)
        state.extra["schedules"] = [Schedule.from_dict(doc) for doc in inputs["schedules"]]
        return state

    def measure(self, state: _State) -> None:
        from repro.chaos import campaign

        class KeepingRunner(campaign.CampaignRunner):
            """Remembers each schedule's network for the modelled outputs."""

            def build_network(self, *args: Any, **kwargs: Any):
                network = super().build_network(*args, **kwargs)
                state.extra.setdefault("networks", []).append(network)
                return network

        schedules = state.extra["schedules"]
        config = campaign.CampaignConfig(
            topology=state.inputs["topology"],
            schedules=len(schedules),
            seed=state.inputs["net_seed"],
        )
        runner = KeepingRunner(config)
        state.extra["results"] = [runner.run_schedule(schedule) for schedule in schedules]

    def finish(self, state: _State) -> RoundResult:
        results = state.extra["results"]
        durations: List[int] = []
        rows = []
        for result, net in zip(results, state.extra["networks"]):
            epochs = _epoch_durations(net)
            durations += [d for _e, d in epochs]
            rows.append(
                {
                    "name": result.name,
                    "passed": result.passed,
                    "sim_ns": result.sim_ns,
                    "epochs": epochs,
                    "injected": dict(sorted(result.injected.items())),
                    "checks_run": dict(sorted(result.checks_run.items())),
                    "violations": result.violations,
                }
            )
        notes = [f"{r.name}: {v}" for r in results for v in r.violations]
        notes += [f"{r.name}: did not converge" for r in results if not r.converged]
        return RoundResult(
            attempted=len(results),
            failed=sum(1 for r in results if not r.passed),
            model={"schedules": rows},
            headline={"model.reconfig_ms": _median_ms(durations)},
            violations=sum(len(r.violations) for r in results),
            notes=notes,
        )


# -- 5. traffic_srclan -----------------------------------------------------------


class TrafficSrclan:
    """A hotspot fluid workload across one cable cut, with its SLO
    document built and validated."""

    name = "traffic_srclan"

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        from repro.traffic.workload import TrafficConfig

        net = _build(inputs, traffic=TrafficConfig(**inputs["traffic"]))
        state = _State(inputs, out_dir, net=net)
        state.extra["booted"] = state.net.run_until_converged(timeout_ns=TIMEOUT_NS)
        state.extra["epochs_before"] = len(state.net.tracer.finished_spans())
        return state

    def measure(self, state: _State) -> None:
        from repro import scenario
        from repro.traffic import artifact

        net = state.net
        outcome = scenario.drive_scenario(
            net,
            [tuple(state.inputs["cut"])],
            load_ns=state.inputs["load_ns"],
            timeout_ns=TIMEOUT_NS,
        )
        doc = net.traffic_doc(self.name)
        try:
            artifact.validate_traffic(doc)
            state.extra["invalid"] = ""
        except artifact.TrafficSchemaError as exc:
            state.extra["invalid"] = str(exc)
        state.extra.update(doc=doc, outcome=outcome)

    def finish(self, state: _State) -> RoundResult:
        extra = state.extra
        doc = extra["doc"]
        outcome = extra["outcome"]
        flows = doc["generated_flows"]
        notes = list(outcome.warnings)
        if extra["invalid"]:
            notes.append(f"repro.traffic/1 document invalid: {extra['invalid']}")
        if doc["flows_unrouted"]:
            notes.append(f"{doc['flows_unrouted']} flows left unrouted")
        broken = extra["invalid"] or not (extra["booted"] and outcome.reconverged)
        durations = [d for _e, d in _epoch_durations(state.net)[extra["epochs_before"] :]]
        return RoundResult(
            attempted=max(1, flows),
            failed=max(1, flows) if broken else doc["flows_unrouted"],
            model={"doc": doc, "reconverged": outcome.reconverged, "epochs": durations},
            headline={
                "model.reconfig_ms": _median_ms(durations),
                "model.goodput_mbps": (doc["goodput_bytes_per_sec"] or 0) * 8 / 1e6,
                "model.blackout_cost_mib": doc["blackout_cost_bytes"] / 2**20,
            },
            notes=notes,
        )


# -- 6. observed_torus -----------------------------------------------------------


class ObservedTorus:
    """Every observer attached (flight, timeseries, in-band, control)
    under host traffic and one cable cut, then every artifact exported
    and validated."""

    name = "observed_torus"
    ARTIFACTS = ("flight", "timeseries", "inband", "telemetry")
    #: a packet may be in flight towards the cable when it is cut
    IN_FLIGHT_NS = 1 * MS

    def setup(self, inputs: Dict[str, Any], out_dir: str) -> _State:
        net = _build(inputs, flight=True, timeseries=True, inband=True, control=True)
        state = _State(inputs, out_dir, net=net)
        hosts = _prepare_hosts(net, inputs)
        hosts["created"] = [self._stamp_arrivals(localnet) for localnet in hosts["localnets"]]
        faults: List[int] = []
        net.on_fault = lambda _kind, _detail: faults.append(net.sim.now)
        state.extra.update(hosts=hosts, faults=faults)
        state.extra["epochs_before"] = len(net.tracer.finished_spans())
        return state

    @staticmethod
    def _stamp_arrivals(localnet) -> List[int]:
        """Creation time of every datagram the host's sink receives."""
        created: List[int] = []
        deliver = localnet.on_datagram

        def stamped(src_uid, ethertype, data_bytes, packet) -> None:
            created.append(packet.created_at)
            deliver(src_uid, ethertype, data_bytes, packet)

        localnet.on_datagram = stamped
        return created

    def measure(self, state: _State) -> None:
        from repro import scenario
        from repro.obs import inband, perfetto, timeseries

        net = state.net
        inputs = state.inputs
        hosts = state.extra["hosts"]
        started = net.sim.now
        senders = _start_senders(hosts, inputs["perm"], inputs["bytes"], inputs["period_ns"])
        outcome = scenario.drive_scenario(
            net, [tuple(inputs["cut"])], load_ns=inputs["load_ns"], timeout_ns=TIMEOUT_NS
        )
        for sender in senders:
            sender.stop()
        net.run_for(5 * MS)
        accepted = sum(sender.accepted for sender in senders)
        state.extra.update(
            started=started,
            attempts=[sender.attempted for sender in senders],
            accepted=accepted,
            sent_bytes=accepted * inputs["bytes"],
            sim_ns=net.sim.now - started,
            outcome=outcome,
        )

        paths = {kind: os.path.join(state.out_dir, f"{kind}.json") for kind in self.ARTIFACTS}
        net.export_flight_trace(paths["flight"])
        net.export_timeseries(paths["timeseries"])
        net.export_inband(paths["inband"])
        with open(paths["telemetry"], "w") as fh:
            json.dump(net.telemetry(), fh, indent=1, sort_keys=True, default=str)
        readers = {
            "flight": perfetto.read_trace,
            "timeseries": timeseries.read_timeseries,
            "inband": inband.read_inband,
            "telemetry": self._read_telemetry,
        }
        invalid = {}
        for kind, reader in readers.items():
            try:
                reader(paths[kind])
            except ValueError as exc:  # every repro.*/1 schema error is a ValueError
                invalid[kind] = str(exc)
        state.extra.update(paths=paths, invalid=invalid)

    @staticmethod
    def _read_telemetry(path: str) -> Dict[str, Any]:
        with open(path) as fh:
            doc = json.load(fh)
        missing = {"time_ns", "metrics", "switches", "reconfigurations", "control"} - set(doc)
        if missing:
            raise ValueError(f"telemetry snapshot lacks {sorted(missing)}")
        return doc

    def _lost_outside_blackout(self, state: _State, spans) -> Tuple[int, int]:
        """(lost, lost outside the blackout) over every datagram attempted.

        The cut blacks traffic out while the fabric reconfigures; that
        loss is the modelled behaviour (``model.delivered_ratio``).  A
        datagram is a *failed* operation only if it was created outside
        the window from the cut to the reopening of the last epoch the
        cut caused -- there the fabric must be lossless.
        """
        extra = state.extra
        inputs = state.inputs
        window = (
            min(extra["faults"], default=0) - self.IN_FLIGHT_NS,
            max((span.end_ns for span in spans), default=0),
        )
        lost = outside = 0
        for src, dst in enumerate(inputs["perm"]):
            arrived = set(extra["hosts"]["created"][dst])
            for n in range(extra["attempts"][src]):
                created = extra["started"] + n * inputs["period_ns"]
                if created not in arrived:
                    lost += 1
                    outside += not window[0] <= created <= window[1]
        return lost, outside

    def finish(self, state: _State) -> RoundResult:
        net = state.net
        extra = state.extra
        sinks = extra["hosts"]["sinks"]
        model = _delivery_model(sinks, extra["accepted"], extra["sent_bytes"], extra["sim_ns"])
        spans = net.tracer.finished_spans()[extra["epochs_before"] :]
        lost, outside = self._lost_outside_blackout(state, spans)
        durations = [span.duration_ns for span in spans]
        model.update(
            ready=extra["hosts"]["ready"],
            lost=lost,
            lost_outside_blackout=outside,
            drops=dict(sorted(net.inband.slo.drops.items())),
            epochs=durations,
            reconverged=extra["outcome"].reconverged,
            flight_records=net.flight.total_recorded,
            inband_hops=net.inband.hops_recorded,
            control_packets=net.control.packets,
        )
        notes = list(extra["outcome"].warnings)
        notes += [f"{kind} artifact invalid: {why}" for kind, why in extra["invalid"].items()]
        if outside:
            notes.append(f"{outside} datagrams lost outside the reconfiguration blackout")
        if not extra["hosts"]["ready"]:
            notes.append("hosts never learned their short addresses")
        headline = _delivery_headline(model) if model["accepted"] else {}
        headline["model.reconfig_ms"] = _median_ms(durations)
        return RoundResult(
            attempted=max(1, sum(extra["attempts"])) + len(self.ARTIFACTS),
            failed=outside + len(extra["invalid"]) + (0 if extra["hosts"]["ready"] else 1),
            model=model,
            headline=headline,
            notes=notes,
        )


def workload(name: str):
    """The workload object for ``name``."""
    table = {
        cls.name: cls
        for cls in (
            ReconfigSrclan,
            SteadySrclan,
            DataplaneTorus,
            ChaosTorus,
            TrafficSrclan,
            ObservedTorus,
        )
    }
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
    return table[name]()
