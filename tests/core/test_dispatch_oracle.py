"""Type-keyed dispatch matches the ``isinstance`` chain it replaced.

``Autopilot._process`` hands a message to the handler its exact type
names, and ``ReconfigEngine.receive`` is the one way in for the five
reconfiguration types.  ``tests/naive_dispatch.py`` keeps the chain that
did both inline.  Two guards (CI also runs this file in the
``determinism`` job under ``PYTHONHASHSEED=0`` and ``=random``):

* a **one-message differential** -- each of the ten message types a
  control processor receives, from an older, the same or a newer epoch,
  arriving on the CP port, a good port or a port that is not good, at a
  configured or an unconfigured switch, with local reconfiguration on or
  off -- on two copies of one converged world: the same handler calls in
  the same order, the same packets sent, the same engine state, and the
  same world 30 ms later;
* a **whole-network differential**: three scenarios of
  ``tests/core/test_sampler_oracle.py`` run under the chain give the same
  trace logs, event counts and per-port monitor state.
"""

import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CONTROL_PROCESSOR_PORT, MS, SEC
from repro.core.autopilot import Autopilot
from repro.core.messages import (
    AckMsg,
    CodeDownloadMsg,
    ConfigMsg,
    ConnectivityProbe,
    ConnectivityReply,
    HostAddressRequest,
    LinkDownMsg,
    SrpMessage,
    StableMsg,
    TreePositionMsg,
)
from repro.core.monitor import Monitoring
from repro.core.reconfig import ReconfigEngine
from repro.core.srp import SrpHandler
from repro.core.topo import NetLink, PortRef, SwitchRecord, TopologyMap
from repro.net.packet import Packet
from repro.network import Network
from repro.topology import line
from repro.types import Uid
from tests import naive_dispatch
from tests.core.test_sampler_oracle import (
    observe,
    ring_cut_restore,
    src_lan_boot_and_cut,
    torus_flaps_crash_restart,
)

KINDS = (
    TreePositionMsg, AckMsg, StableMsg, ConfigMsg, LinkDownMsg,
    ConnectivityProbe, ConnectivityReply, HostAddressRequest, SrpMessage, CodeDownloadMsg,
)
ARRIVALS = ("cp", "good", "not-good")

#: every handler either dispatch may call, as (class, method)
WATCHED = (
    (Monitoring, "on_probe"), (Monitoring, "on_probe_reply"),
    (Autopilot, "_answer_host_address"), (SrpHandler, "handle"),
    (ReconfigEngine, "maybe_join"), (ReconfigEngine, "nudge"),
    (ReconfigEngine, "on_tree_position"), (ReconfigEngine, "on_ack"),
    (ReconfigEngine, "on_stable"), (ReconfigEngine, "on_config"),
    (ReconfigEngine, "on_link_down"),
)
#: (handler, arguments) in call order, for the side being driven
CALLS = []


def _watch(cls, name):
    original = getattr(cls, name)

    @functools.wraps(original)  # a bound method pickles as getattr(self, name)
    def watched(self, *args):
        CALLS.append((f"{cls.__name__}.{name}", args))
        return original(self, *args)

    return watched


@pytest.fixture(scope="module")
def converged():
    """A converged line-3 whose handlers, bound when it was built, log to CALLS."""
    with pytest.MonkeyPatch.context() as patch:
        for cls, name in WATCHED:
            patch.setattr(cls, name, _watch(cls, name))
        net = Network(line(3), seed=1)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        yield net


def message_for(kind, ap, epoch, port, pick):
    """A message of ``kind`` a neighbor on ``port`` could have sent; each
    free field is ``pick(options)``."""
    engine, mon = ap.engine, ap.monitoring.ports.get(port)
    sender = mon.neighbor.uid if mon and mon.neighbor else Uid(0x77)
    head = {"epoch": epoch, "sender_uid": sender, "msg_id": ap.sim.new_msg_id()}
    topology = engine.topology
    if kind is TreePositionMsg:
        return kind(
            **head, root=pick([ap.uid, sender, Uid(1)]), level=pick([0, 1, 3]),
            pos_seq=pick([0, engine.pos_seq, 99]), parent_uid=pick([None, ap.uid]),
            parent_far_port=port,
        )
    if kind is AckMsg:
        return kind(
            **head, acked_msg_id=pick([0, *sorted(engine._pending)]),
            acked_pos_seq=pick([None, engine.pos_seq - 1, engine.pos_seq]),
            accepts_as_parent=pick([False, True]),
        )
    if kind is StableMsg:
        subtree = TopologyMap(root=ap.uid)
        subtree.switches[sender] = SwitchRecord(sender, 1, port, ap.uid)
        return kind(**head, subtree=pick([None, subtree]))
    if kind is ConfigMsg:
        return kind(**head, topology=pick([None, topology]))
    if kind is LinkDownMsg:
        stranger = NetLink(PortRef(ap.uid, 12), PortRef(Uid(0x77), 1))
        return kind(**head, link=pick([None, stranger, *sorted(topology.links, key=repr)]))
    if kind is ConnectivityProbe:
        return kind(**head, nonce=pick([0, 3]), sender_port=pick([1, 12]))
    if kind is ConnectivityReply:
        return kind(
            **head, nonce=pick([0, mon.nonce if mon else 1]), echo_uid=pick([sender, ap.uid]),
            echo_port=port, sender_port=pick([12, 1]),
        )
    if kind is HostAddressRequest:
        return kind(**head, host_uid=Uid(0x99))
    if kind is SrpMessage:
        return kind(**head, route=pick([(), (12,), (port,)]), command=pick(["log", "ping"]))
    return kind(**head, version=ap.software_version + pick([0, 1]))


def engine_state(engine):
    peers = [(port, tuple(getattr(peer, slot) for slot in peer.__slots__))
             for port, peer in sorted(engine.peers.items())]
    return (
        engine.epoch, engine.position, engine.pos_seq, engine.ports, peers,
        engine.configured, engine.table_loaded, engine.topology, engine.my_number,
        sorted(engine._pending), engine._last_stable_sent, engine.epochs_initiated,
        engine.epochs_joined, engine.terminations, engine.msgs_gated,
    )


def deliver(net, index, message, port, dispatch):
    """Hand one packet to switch ``index``'s control processor; what it caused."""
    sent = []
    for ap in net.autopilots:
        switch, inject = ap.switch, ap.switch.inject_from_cp

        def spy(packet, switch=switch, inject=inject):
            sent.append((switch.name, packet.dest_short, packet.ptype, packet.data_bytes,
                         packet.payload))
            inject(packet)

        switch.inject_from_cp = spy
    booted = []
    for ap in net.autopilots:
        ap.on_code_download = booted.append
    packet = Packet(dest_short=0, src_short=0, ptype=message.ptype,
                    data_bytes=message.encoded_bytes(), payload=message)
    del CALLS[:]
    dispatch(net.autopilots[index], packet, port)
    calls = list(CALLS)
    state = [engine_state(ap.engine) for ap in net.autopilots]
    net.run_for(30 * MS)
    return calls, list(sent), booted, state, observe(net)


def fork(world):
    """An independent copy: a pickle round trip, cheaper than a deepcopy."""
    return pickle.loads(pickle.dumps(world))


def fork_world(converged, index, configured, local=False):
    """A copy of the converged world, switch ``index`` optionally in a
    fresh epoch of its own."""
    base = fork(converged)
    ap = base.autopilots[index]
    ap.engine.params.enable_local_reconfig = local
    if not configured:
        ap.engine.initiate("differential")
    return base, ap


def both(base, index, message, port):
    """The same delivery to ``base`` and a copy of it: (chain, table)."""
    net, msg = fork((base, message))
    chain = deliver(net, index, msg, port, naive_dispatch.process)
    return chain, deliver(base, index, message, port, Autopilot._process)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    age=st.sampled_from((-1, 0, 1)),
    arrival=st.sampled_from(ARRIVALS),
    configured=st.booleans(),
    local=st.booleans(),
    index=st.integers(0, 2),
    data=st.data(),
)
def test_one_message_dispatches_as_the_chain_did(
    converged, kind, age, arrival, configured, local, index, data
):
    base, ap = fork_world(converged, index, configured, local)

    def pick(options):
        return data.draw(st.sampled_from(options))

    good = sorted(ap.good_ports())
    port = {
        "cp": CONTROL_PROCESSOR_PORT,
        "good": pick(good),
        "not-good": pick([p for p in range(1, 13) if p not in good]),
    }[arrival]
    message = message_for(kind, ap, max(0, ap.engine.epoch + age), port, pick)
    chain, table = both(base, index, message, port)
    # piecewise, so that a failure names what diverged
    for got, want in zip(table, chain):
        assert got == want


def test_the_grid_reaches_every_handler(converged):
    """Every type, epoch age, arrival and configuredness once, each free
    field at its last option: the two dispatches agree, and between them
    the cases call every watched handler, gate, and boot a release."""
    reached, gated, booted = set(), 0, 0
    for kind, age, arrival, configured in itertools.product(
        KINDS, (-1, 0, 1), ARRIVALS, (True, False)
    ):
        base, ap = fork_world(converged, 1, configured)
        port = {"cp": CONTROL_PROCESSOR_PORT, "good": min(ap.good_ports()), "not-good": 12}
        message = message_for(
            kind, ap, max(0, ap.engine.epoch + age), port[arrival], lambda options: options[-1]
        )
        chain, table = both(base, 1, message, port[arrival])
        assert table == chain, (kind.__name__, age, arrival, configured)
        calls, _sent, boots, engines, _world = table
        reached |= {name for name, _args in calls}
        gated += engines[1][-1]  # msgs_gated of the switch driven
        booted += len(boots)
    assert reached == {f"{cls.__name__}.{name}" for cls, name in WATCHED}
    assert gated > 0 and booted > 0


@pytest.mark.parametrize(
    "scenario", [ring_cut_restore, torus_flaps_crash_restart, src_lan_boot_and_cut],
    ids=lambda scenario: scenario.__name__,
)
def test_whole_networks_run_as_under_the_chain(scenario, monkeypatch):
    table = observe(scenario())
    naive_dispatch.install(monkeypatch)
    chain = observe(scenario())
    for got, want in zip(table, chain):
        assert got == want
