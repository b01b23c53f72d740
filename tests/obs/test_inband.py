"""In-band path telemetry: stamps, folding, SLO windows, artifact, CLI.

ISSUE 6 acceptance lives here: the disabled layer costs nothing (no hop
list is ever allocated, telemetry output is byte-identical), the enabled
layer is observational-only, and a ``cut_link`` across a converged
installation shows up as at least one per-flow path change with exact
delivery quantiles.
"""

import json

import pytest

from repro.constants import MS, SEC
from repro.network import Network
from repro.net.packet import Packet
from repro.obs import artifact
from repro.obs import inband as inband_module
from repro.obs.artifact import SchemaError
from repro.obs.inband import (
    INBAND_SCHEMA,
    InbandTelemetry,
    PathCollector,
    SloTracker,
    exact_quantile,
    path_of,
    read_inband,
)
from repro.topology import ring, torus
from repro.types import Uid


# -- small helpers --------------------------------------------------------------------


def _free_port(net, sw):
    for p in sorted(net.switches[sw].ports, reverse=True):
        if not net.switches[sw].ports[p].connected:
            return p
    raise AssertionError(f"no free port on sw{sw}")


def attach_traffic(net, period_ns=5 * MS, data_bytes=256):
    """Two hosts on opposite sides, sending to each other periodically.

    Returns ``(sinks, seen)`` where ``seen`` accumulates every delivered
    Packet object (so tests can inspect ``packet.hops`` directly).
    """
    from repro.host.localnet import LocalNet
    from repro.host.workload import PeriodicSender, Sink

    count = len(net.switches)
    spots = [0, count // 2 if count > 1 else 0]
    hosts = []
    for i, sw in enumerate(spots):
        name = f"h{i}"
        controller = net.add_host(name, [(sw, _free_port(net, sw))])
        hosts.append((controller, LocalNet(net.drivers[name])))
    seen = []
    sinks = []
    for i, (_controller, localnet) in enumerate(hosts):
        sink = Sink(localnet)
        inner = localnet.on_datagram

        def tap(src_uid, ethertype, data_bytes, packet, _inner=inner):
            seen.append(packet)
            _inner(src_uid, ethertype, data_bytes, packet)

        localnet.on_datagram = tap
        sinks.append(sink)
        peer = hosts[1 - i][0]
        PeriodicSender(localnet, peer.uid, data_bytes, period_ns)
    return sinks, seen


class StubSim:
    def __init__(self):
        self.now = 0
        self.inband = None


class StubTracer:
    def __init__(self, spans):
        self.spans = spans

    def add_listener(self, fn):
        pass

    def windows(self):
        return self.spans


def client_packet(src=0x111, dest=0x222, created_at=100, data_bytes=64):
    return Packet(
        dest_short=2, src_short=1,
        src_uid=Uid(src), dest_uid=Uid(dest),
        data_bytes=data_bytes, created_at=created_at,
    )


# -- exact quantiles and path keys ----------------------------------------------------


def test_exact_quantile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert exact_quantile(values, 0.5) == 50
    assert exact_quantile(values, 0.99) == 99
    assert exact_quantile(values, 1.0) == 100
    assert exact_quantile(values, 0.0) == 1
    assert exact_quantile([7.0], 0.99) == 7.0


def test_exact_quantile_empty_and_bad_q():
    assert exact_quantile([], 0.5) is None
    with pytest.raises(ValueError):
        exact_quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        exact_quantile([1.0], -0.1)


def test_path_of_drops_timestamps_and_depths():
    hops = [(10, "sw0", 9, (2,), 0.0), (20, "sw1", 3, (5,), 128.0)]
    assert path_of(hops) == (("sw0", 9, (2,)), ("sw1", 3, (5,)))


# -- the collector and SLO tracker in isolation ---------------------------------------


def test_collector_detects_path_change_and_bounds_history(monkeypatch):
    monkeypatch.setattr(inband_module, "PATH_HISTORY", 2)
    collector = PathCollector()
    pkt = client_packet()
    path_a = [(1, "sw0", 9, (2,), 0.0)]
    path_b = [(1, "sw0", 9, (4,), 0.0)]
    pkt.hops = list(path_a)
    collector.fold(pkt, t_ns=10, epoch=1)
    pkt.hops = list(path_b)
    collector.fold(pkt, t_ns=20, epoch=2)
    record = next(iter(collector.flows.values()))
    assert [(t_ns, epoch) for t_ns, epoch, _old, _new in record.changes] == [(20, 2)]
    # flip back and forth: the deque stays bounded and counts the loss
    for i in range(5):
        pkt.hops = list(path_a if i % 2 == 0 else path_b)
        collector.fold(pkt, t_ns=30 + i, epoch=3)
    assert len(record.changes) == 2
    assert record.changes.dropped > 0


def test_collector_flow_cap_counts_overflow(monkeypatch):
    monkeypatch.setattr(inband_module, "MAX_FLOWS", 2)
    collector = PathCollector()
    for i in range(4):
        pkt = client_packet(src=0x100 + i, dest=0x900)
        pkt.hops = [(1, "sw0", 9, (2,), 0.0)]
        collector.fold(pkt, t_ns=10, epoch=0)
    assert len(collector.flows) == 2
    assert collector.dropped_flows == 2


def test_slo_quantiles_and_epoch_windows():
    slo = SloTracker()
    for i in range(100):
        slo.delivery(t_ns=1000 + i, latency_ns=float(i + 1), data_bytes=64)
    slo.drop(t_ns=1050, cause="table-discard")
    p50, p99 = slo.quantiles()
    assert (p50, p99) == (50, 99)
    assert slo.drops == {"table-discard": 1}
    tracer = StubTracer([
        {"key": "epoch-3", "start_ns": 1000, "end_ns": 1049,
         "duration_ns": 49, "blackouts": 1, "max_blackout_ns": 10},
        {"key": "epoch-4", "start_ns": 1050, "end_ns": None,
         "duration_ns": None, "blackouts": 0, "max_blackout_ns": None},
    ])
    windows = slo.windows(tracer)
    assert windows[0]["deliveries"] == 50
    assert windows[0]["drops"] == 0
    assert windows[1]["deliveries"] == 50  # open span absorbs the tail
    assert windows[1]["drops"] == 1
    assert windows[0]["goodput_bytes"] == 50 * 64


def test_hop_stack_truncates_at_max_hops(monkeypatch):
    monkeypatch.setattr(inband_module, "MAX_HOPS", 2)
    sim = StubSim()
    telemetry = InbandTelemetry(sim)
    pkt = client_packet()
    for hop in range(3):
        sim.now = 100 + hop
        telemetry.record_hop(pkt, f"sw{hop}", 1, (2,), 0.0)
    assert len(pkt.hops) == 2
    assert telemetry.hops_truncated == 1
    assert telemetry.hops_recorded == 2


def test_non_client_packets_are_never_stamped():
    from repro.net.packet import PacketType

    sim = StubSim()
    telemetry = InbandTelemetry(sim)
    control = Packet(dest_short=2, src_short=1, ptype=PacketType.SRP)
    telemetry.record_hop(control, "sw0", 1, (2,), 0.0)
    telemetry.record_delivery(control)
    telemetry.record_drop(control, "sw0", "table-discard")
    assert control.hops is None
    assert telemetry.hops_recorded == 0
    assert telemetry.slo.deliveries == 0
    assert telemetry.slo.drops == {}


# -- disabled-path invariants (acceptance: determinism) -------------------------------


def _traffic_run(ring_n, seed, inband):
    net = Network(ring(ring_n), seed=seed, telemetry=True, inband=inband)
    attach_traffic(net)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.sim.at(net.sim.now + 1 * SEC, net.cut_link, 0, 1)
    net.run_for(3 * SEC)
    return net


def test_disabled_inband_allocates_no_hop_stacks():
    net = Network(ring(4), seed=3)
    _sinks, seen = attach_traffic(net)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(1 * SEC)
    assert net.inband is None and net.sim.inband is None
    assert len(seen) > 0
    assert all(packet.hops is None for packet in seen)


def test_enabled_inband_stamps_every_delivered_client_packet():
    net = Network(ring(4), seed=3, inband=True)
    _sinks, seen = attach_traffic(net)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(1 * SEC)
    assert len(seen) > 0
    assert all(packet.hops for packet in seen)
    assert net.inband.hops_recorded > 0


def test_disabled_inband_leaves_run_byte_identical():
    """ISSUE 6 acceptance (determinism): with the layer off, telemetry
    output is byte-identical whether or not the module is in play."""
    def snapshot(inband):
        net = _traffic_run(4, seed=7, inband=inband)
        return json.dumps(net.telemetry(), sort_keys=True, default=str)

    assert snapshot(False) == snapshot(None)


def test_enabled_inband_is_observational_only():
    """Stamping packets must not perturb the run: the simulation-side
    telemetry snapshot is identical with the layer on or off."""
    def snapshot(inband):
        net = _traffic_run(4, seed=7, inband=inband)
        return json.dumps(net.telemetry(), sort_keys=True, default=str)

    assert snapshot(True) == snapshot(False)


def test_disabled_inband_byte_identical_on_torus():
    def snapshot(inband):
        net = Network(torus(3, 4), seed=0, telemetry=True, inband=inband)
        net.sim.at(1 * SEC, net.cut_link, 0, 1)
        net.run_for(2 * SEC)
        return json.dumps(net.telemetry(), sort_keys=True, default=str)

    assert snapshot(False) == snapshot(None)


def test_disabled_inband_byte_identical_on_src_lan():
    from repro.topology.generators import resolve_topology

    def snapshot(inband):
        net = Network(
            resolve_topology("src-lan-30"), seed=0, telemetry=True,
            inband=inband,
        )
        net.sim.at(1 * SEC, net.cut_link, 0, 1)
        net.run_for(2 * SEC)
        return json.dumps(net.telemetry(), sort_keys=True, default=str)

    assert snapshot(False) == snapshot(None)


# -- acceptance: a cut shows up as a path change with exact quantiles -----------------


def test_cut_link_produces_path_change_and_quantiles(tmp_path):
    net = Network(torus(3, 4), seed=0, inband=True)
    attach_traffic(net)
    assert net.run_until_converged(timeout_ns=90 * SEC)
    net.run_for(1 * SEC)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(1 * SEC)

    doc = net.inband_doc()
    artifact.validate(doc, INBAND_SCHEMA)
    changes = [c for flow in doc["flows"] for c in flow["changes"]]
    assert len(changes) >= 1
    assert doc["slo"]["p50_ns"] is not None
    assert doc["slo"]["p99_ns"] is not None
    assert doc["slo"]["deliveries"] > 0

    # the artifact round-trips through the validator on disk
    path = tmp_path / "paths.json"
    net.export_inband(str(path))
    loaded = read_inband(str(path))
    assert loaded["schema"] == INBAND_SCHEMA
    assert loaded["slo"]["deliveries"] == doc["slo"]["deliveries"]
    assert "link congestion" in artifact.render(doc)


def test_inband_doc_raises_when_off():
    net = Network(ring(3), seed=0)
    with pytest.raises(RuntimeError):
        net.inband_doc()


# -- validator ------------------------------------------------------------------------


_DOC_CACHE = {}


def _valid_doc():
    if "doc" not in _DOC_CACHE:
        net = Network(ring(3), seed=1, inband=True)
        attach_traffic(net)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(1 * SEC)
        doc = net.inband_doc()
        artifact.validate(doc, INBAND_SCHEMA)
        _DOC_CACHE["doc"] = json.dumps(doc)
    return json.loads(_DOC_CACHE["doc"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema="repro.obs.inband/999"),
        lambda d: d.pop("flows"),
        lambda d: d.update(max_hops=0),
        lambda d: d.update(hops_recorded=-1),
        lambda d: d["slo"].update(p50_ns="fast"),
        lambda d: d["slo"].update(drops=[1, 2]),
        lambda d: d["flows"][0].update(deliveries=True),
    ],
    ids=["schema", "no-flows", "max-hops", "negative", "p50-type",
         "drops-type", "bool-int"],
)
def test_validator_rejects_malformed(mutate):
    doc = _valid_doc()
    assert doc["flows"], "need at least one flow to mutate"
    mutate(doc)
    with pytest.raises(SchemaError):
        artifact.validate(doc, INBAND_SCHEMA)


def test_write_inband_refuses_invalid(tmp_path):
    with pytest.raises(SchemaError):
        artifact.write(str(tmp_path / "bad.json"), {"schema": "nope"})


# -- CLI ------------------------------------------------------------------------------


def test_cli_no_subcommand_prints_listing(capsys):
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "{run,report,validate}" in err
    assert "regress" not in err and "sweep" not in err
