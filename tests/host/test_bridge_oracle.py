"""One :class:`repro.host.bridge.Bridge` forwards as the two it replaced.

``tests/naive_bridge.py`` keeps ``AutonetEthernetBridge`` and
``AutonetAutonetBridge`` as they were.  Each world below converges once,
without a bridge; every Hypothesis example forks it twice by pickle (as
``tests/core/test_dispatch_oracle.py`` does), puts the old bridge on one
copy and the new one on the other, and plays one random script on both:
unicast, broadcast, ARP, oversize and encrypted sends from either side,
failovers of a bridge driver, with random gaps, under a forwarding-CPU
bound (``max_backlog``) of 1, 2 or 64.  Every host must receive
the same packets at the same instants, the hosts' UID caches and the
bridge's cache must agree, and so must every counter both bridges keep.

The old bridges run with the three declared behaviour changes applied
(:class:`DeclaredEthernet`, :class:`DeclaredAutonet`): readiness and the
destination's short address are decided when a packet leaves, and an ARP
the bridge does not answer counts in ``discarded``.

Two planted mutants of ``Bridge`` fail the fixed script at once and each
random test that can see them under every Hypothesis seed tried (1-7):
the same-side filter skipped (its condition made ``False``), and Ethernet
sources not learned (``and end.probes`` added to the learning condition).
"""

import pickle
from functools import partial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.constants import ADDR_BROADCAST_HOSTS, SEC, US
from repro.host.bridge import EXAMINE_NS, FORWARD_NS, QBUS_PER_BYTE_NS, Bridge
from repro.host.driver import AutonetDriver
from repro.host.ethernet import Ethernet
from repro.host.localnet import BROADCAST_UID, LocalNet
from repro.net.packet import Packet
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import line
from repro.topology.generators import TopologySpec
from repro.types import Uid
from tests import naive_bridge

UNKNOWN = Uid(0xDEAD)
SIZES = (28, 66, 700, 1500, 4000)


class DeclaredEthernet(naive_bridge.AutonetEthernetBridge):
    """The old Autonet-Ethernet bridge, deciding readiness and the
    destination's short address when a frame leaves for the Autonet."""

    def _from_ethernet(self, src, dest, data_bytes, payload):
        self.examined += 1
        if src != self.uid:
            self.cache[src] = ("ethernet", None)
        if dest == self.uid:
            return
        if self.cache.get(dest, (None,))[0] == "ethernet" and dest != BROADCAST_UID:
            self._enqueue(EXAMINE_NS, self._count_discard)
            return
        cost = EXAMINE_NS + FORWARD_NS + 2 * QBUS_PER_BYTE_NS * data_bytes
        self._enqueue(cost, self._leave, dest, src, data_bytes, payload)

    def _leave(self, dest, src, data_bytes, payload):
        if not self.driver.ready:
            self.discarded += 1
            return
        side, short = self.cache.get(dest, (None, None))
        known = dest != BROADCAST_UID and side == "autonet" and short
        self._emit_autonet(short if known else ADDR_BROADCAST_HOSTS, dest, src, data_bytes,
                           payload)


class DeclaredAutonet(naive_bridge.AutonetAutonetBridge):
    """The old Autonet-Autonet bridge, counting the ARPs it leaves
    unanswered (same side, its own UIDs, a proxy answer it cannot send)."""

    def _handle_arp(self, side, packet, request):
        target = request.target_uid
        if self.cache.get(target, (None,))[0] == side or target in self.uids:
            self.discarded += 1
            return
        super()._handle_arp(side, packet, request)

    def _proxy_answer(self, side, requester_uid, target):
        if not self.drivers[side].ready:
            self.discarded += 1
            return
        super()._proxy_answer(side, requester_uid, target)


def converge(net, world):
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)
    return world


@pytest.fixture(scope="module")
def ethernet_world():
    """``test_bridge.py``'s line-2 with h0 and the bridge host, and an
    Ethernet with the bridge's station, e0 and e1."""
    net = Network(line(2))
    net.add_host("h0", [(0, 5), (1, 5)])
    bridge_uid = net.add_host("bridge", [(1, 7), (0, 7)]).uid
    ether = Ethernet(net.sim)
    return converge(net, {
        "sim": net.sim,
        "localnets": {"h0": LocalNet(net.drivers["h0"])},
        "stations": {"e0": ether.attach(Uid(0xE0), "e0"), "e1": ether.attach(Uid(0xE1), "e1")},
        "ends": (net.drivers["bridge"], ether.attach(bridge_uid, "bridge-eth")),
        "bridge_of": {"h0": net.drivers["bridge"]},
    })


@pytest.fixture(scope="module")
def autonet_world():
    """``test_autonet_bridge.py``'s two Autonets on one simulator, hA and
    hA2 on A, hB on B, the bridge host on both."""
    sim = Simulator()
    net_a = Network(line(2), sim=sim, name="A")
    spec_b = TopologySpec(uids=[Uid(0x2000), Uid(0x2001)], name="line-2b")
    spec_b.cables = [(0, 1, 1, 1)]
    net_b = Network(spec_b, sim=sim, name="B")
    net_a.add_host("hA", [(0, 5), (1, 5)])
    net_a.add_host("hA2", [(0, 6), (1, 6)])
    net_b.add_host("hB", [(1, 5), (0, 5)])
    net_a.add_host("bridge-a", [(1, 7), (0, 7)])
    net_b.add_host("bridge-b", [(0, 7), (1, 7)])
    assert net_b.run_until_converged(timeout_ns=60 * SEC)
    drivers = {**net_a.drivers, **net_b.drivers}
    return converge(net_a, {
        "sim": sim,
        "localnets": {name: LocalNet(drivers[name]) for name in ("hA", "hA2", "hB")},
        "stations": {},
        "ends": (drivers["bridge-a"], drivers["bridge-b"]),
        "bridge_of": {"hA": drivers["bridge-a"], "hA2": drivers["bridge-a"],
                      "hB": drivers["bridge-b"]},
    })


class Recorder:
    """What each host received: (src, dest, size, payload, time)."""

    def __init__(self, world):
        self.sim = world["sim"]
        self.got = {name: [] for name in [*world["localnets"], *world["stations"]]}
        for name, ln in world["localnets"].items():
            ln.on_datagram = partial(self.datagram, name)
        for name, station in world["stations"].items():
            station.on_receive = partial(self.frame, name)

    def datagram(self, name, src, _ethertype, size, packet):
        self.got[name].append((src, packet.dest_uid, size, packet.payload, self.sim.now))

    def frame(self, name, src, dest, size, payload):
        self.got[name].append((src, dest, size, payload, self.sim.now))


def step(world, action):
    """Play one action of a script on one fork."""
    kind, who, dest, size, flag = action
    if kind == "failover":
        drivers = [end for end in world["ends"] if isinstance(end, AutonetDriver)]
        drivers[who % len(drivers)]._fail_over()
    elif kind == "eth":
        world["stations"][who].send(dest, min(size, 1500))
    elif kind == "send":
        world["localnets"][who].send(dest, size)
    elif kind == "arp":
        world["localnets"][who]._send_arp_request(dest, ADDR_BROADCAST_HOSTS)
    else:  # a raw packet, to the bridge's short address or every host
        driver = world["localnets"][who].driver
        driver.send(Packet(
            dest_short=world["bridge_of"][who].short_address or ADDR_BROADCAST_HOSTS,
            src_short=0, dest_uid=dest, src_uid=driver.controller.uid, data_bytes=size,
            encrypted=flag, packet_id=world["sim"].new_packet_id(),
        ))


def play(world, script):
    """Run ``script`` on ``world``: what each host received, each host's
    UID cache and its LocalNet counters."""
    recorder = Recorder(world)
    sim = world["sim"]
    for gap_us, action in script:
        sim.run_for(gap_us * US)
        step(world, action)
    sim.run_for(2 * SEC)
    caches = {name: {uid: entry.short_address for uid, entry in ln.cache.items()}
              for name, ln in world["localnets"].items()}
    stats = {name: ln.stats for name, ln in world["localnets"].items()}
    return recorder.got, caches, stats


SHARED = ("examined", "discarded", "dropped_backlog", "proxy_arps")


def old_counters(bridge):
    names = [*SHARED, "forwarded_to_ethernet", "forwarded_to_autonet", "refused_large",
             "refused_encrypted", "forwarded"]
    return {name: getattr(bridge, name) for name in names if hasattr(bridge, name)}


def new_counters(bridge, ethernet):
    counters = {name: getattr(bridge, name) for name in SHARED}
    if ethernet:
        counters.update(
            forwarded_to_ethernet=bridge.b.forwarded, forwarded_to_autonet=bridge.a.forwarded,
            refused_large=bridge.refused_large, refused_encrypted=bridge.refused_encrypted,
        )
    else:
        assert bridge.refused_large == bridge.refused_encrypted == 0
        counters["forwarded"] = bridge.a.forwarded + bridge.b.forwarded
    return counters


def differential(world, script, old_class, ethernet, max_backlog=64):
    old_world, new_world = (pickle.loads(pickle.dumps(world)) for _ in range(2))
    old = old_class(*old_world["ends"], max_backlog=max_backlog)
    new = Bridge(*new_world["ends"], max_backlog=max_backlog)
    # piecewise, so that a failure names what diverged
    for got, want in zip(play(new_world, script), play(old_world, script)):
        assert got == want
    assert new_counters(new, ethernet) == old_counters(old)
    renamed = {"autonet": "a"}
    assert new.cache == {uid: (renamed.get(side, side), short)
                         for uid, (side, short) in old.cache.items()}
    return old


def announcement(sender, stations):
    """A sender's 66-byte broadcast, 1 ms after the previous action."""
    return 1000, ("eth" if sender in stations else "send", sender, BROADCAST_UID, 66, False)


def scripts(autonet_senders, stations, dests):
    """Random scripts: (gap in us, (kind, sender, dest, size, encrypted)).
    Some senders first announce themselves, so that the bridge starts out
    knowing where some hosts are and not others."""
    autonet = st.tuples(
        st.sampled_from(("send", "arp", "raw", "raw")), st.sampled_from(autonet_senders),
        st.sampled_from(dests), st.sampled_from(SIZES), st.booleans(),
    )
    kinds = [autonet, st.tuples(st.just("failover"), st.integers(0, 1), st.none(), st.none(),
                                st.none())]
    if stations:
        kinds.append(st.tuples(st.just("eth"), st.sampled_from(stations), st.sampled_from(dests),
                               st.sampled_from(SIZES), st.just(False)))
    body = st.lists(st.tuples(st.integers(0, 3000), st.one_of(*kinds)), min_size=1, max_size=14)
    known = st.lists(st.sampled_from([*autonet_senders, *stations]), unique=True)
    return st.tuples(known, body).map(
        lambda script: [announcement(sender, stations) for sender in script[0]] + script[1]
    )


ETHERNET_DESTS = (Uid(0xE0), Uid(0xE1), BROADCAST_UID, UNKNOWN)
#: the forwarding CPU's bound: tiny ones refuse work, as E6's 10 000 never does
BACKLOGS = st.sampled_from([1, 2, 64])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ethernet_bridge_forwards_as_the_old_one(ethernet_world, data):
    h0 = ethernet_world["localnets"]["h0"].uid
    bridge = ethernet_world["ends"][1].uid
    script = data.draw(scripts(["h0"], ["e0", "e1"], (h0, bridge, *ETHERNET_DESTS)))
    old = differential(ethernet_world, script, DeclaredEthernet, ethernet=True,
                       max_backlog=data.draw(BACKLOGS))
    event("the CPU refused work" if old.dropped_backlog else "no work refused")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_autonet_bridge_forwards_as_the_old_one(autonet_world, data):
    hosts = {name: ln.uid for name, ln in autonet_world["localnets"].items()}
    ends = [driver.controller.uid for driver in autonet_world["ends"]]
    dests = (*hosts.values(), *ends, BROADCAST_UID, UNKNOWN)
    script = data.draw(scripts(sorted(hosts), [], dests))
    old = differential(autonet_world, script, DeclaredAutonet, ethernet=False,
                       max_backlog=data.draw(BACKLOGS))
    event("the CPU refused work" if old.dropped_backlog else "no work refused")


def test_the_scripted_paths_are_reached(ethernet_world, autonet_world):
    """One fixed script per world passes through every path both bridges
    have: forwarding each way, the same-side filter, proxy ARP (after a
    probe, between Autonets), both refusals and a discard at a failover."""
    h0 = ethernet_world["localnets"]["h0"].uid
    old = differential(ethernet_world, [
        (0, ("eth", "e0", BROADCAST_UID, 66, False)),         # e0 announces itself
        (2000, ("eth", "e1", Uid(0xE0), 66, False)),          # same segment: filtered
        (2000, ("send", "h0", Uid(0xE0), 700, False)),        # h0 -> e0 across
        (3000, ("arp", "h0", Uid(0xE1), 28, False)),          # answered by proxy
        (3000, ("raw", "h0", Uid(0xE0), 4000, False)),        # too large for the Ethernet
        (3000, ("raw", "h0", Uid(0xE0), 66, True)),           # encrypted
        (3000, ("raw", "h0", h0, 66, False)),                 # both on the Autonet
        (3000, ("eth", "e0", h0, 66, False)),
        (100, ("failover", 0, None, None, None)),             # ... and it never leaves
    ], DeclaredEthernet, ethernet=True)
    assert old.forwarded_to_ethernet and old.forwarded_to_autonet and old.proxy_arps
    assert old.refused_large == old.refused_encrypted == 1 and old.discarded >= 2

    hosts = autonet_world["localnets"]
    old = differential(autonet_world, [
        (0, ("arp", "hA", hosts["hB"].uid, 28, False)),       # probe B, then answer
        (3000, ("send", "hA", hosts["hB"].uid, 700, False)),
        (3000, ("send", "hB", hosts["hA"].uid, 700, False)),
        (3000, ("send", "hA", hosts["hA2"].uid, 66, False)),
        (3000, ("raw", "hA2", hosts["hA"].uid, 66, False)),   # same side: filtered
        (3000, ("arp", "hA", hosts["hA2"].uid, 28, False)),   # same side: not answered
    ], DeclaredAutonet, ethernet=False)
    assert old.forwarded >= 2 and old.proxy_arps >= 1 and old.discarded >= 2
