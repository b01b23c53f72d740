"""The Ethernet segment and a slow host serve as the loops they replaced.

Both now run on a :class:`repro.sim.timers.TaskScheduler`;
``tests/naive_servers.py`` keeps the hand-rolled loops.  Each Hypothesis
example plays one random script on a simulator with the real class and on
another with the naive one, and the two must agree:

* **Ethernet** -- two to five stations, some promiscuous; unicast to a
  station or a stranger and broadcast frames of 0-1500 bytes, many sent at
  the same instant or on the minimum frame time's grid, so that arrivals
  land on completion instants; stations that answer an original frame from
  inside its hand-up, at once or after a delay on that grid; a queue bound
  (``max_queue``) of 1-4.  Compared: every send's verdict, every station's
  receive log with times, ``frames_carried``, ``frames_dropped``,
  ``bytes_carried`` and the per-station receive counters.
* **Slow host** -- packets of random sizes arriving on a coarse grid at a
  controller with a receive buffer of one to three packets and a random
  ``rx_processing_ns``, and hand-ups that bring another arrival, at once
  or later.  Compared: every hand-up's time, ``packets_dropped_rx``,
  ``packets_received`` and ``_rx_held`` after every event that moved it.

**Declared differences.**  Each item starts and completes at the same
instants in both runs; the runs part only at an instant at which an item
completes, where the loops held the resource busy until the completion's
effects had run and the scheduler frees it as the item ends:

1. an arrival at that instant with nobody waiting -- dispatched before the
   completion, or made by its effects, as a station answering from inside
   a hand-up -- starts at once, so it is not counted against ``max_queue``
   (the loops queued it, and refused a second arrival at a bound of one);
2. its completion is scheduled by the arrival, ahead of what the finishing
   item's effects schedule for the same later instant, so there the two run
   in the other order (a slow host hands a packet up before it takes an
   arrival, so a tight buffer can take a packet the loop dropped);
3. the next waiting item starts at the wake-up, which follows the
   completion, so an arrival dispatched between the two still sees it
   waiting (the loops had started it inside the completion).

So the differential holds the two equal up to the first instant at which an
arrival meets a completion in either run, and equal throughout when there
is none (a third to a half of the examples); the ``test_declared_*`` cases
are Hypothesis's shrunk examples of each difference.

Three planted mutants, each run in a scratch copy, fail this module: a
bound that counts the running frame (``TaskScheduler.__len__`` adding one
while busy), a ``run`` that queues behind nobody (it always waits for a
wake-up), and a hand-up that frees its receive bytes at arrival.
"""

from typing import NamedTuple

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.host.controller import HostController
from repro.host.ethernet import ETHERNET_BROADCAST, Ethernet
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.types import Uid
from tests.naive_servers import NaiveController, NaiveEthernet

#: the shortest frame's time on the wire: 64 bytes, preamble, gap
FRAME_NS = Ethernet(Simulator())._frame_time(0)
STRANGER = Uid(0xDEAD)


class Log:
    """What a run did, in the order it did it."""

    def __init__(self, sim):
        self.sim = sim
        self.entries = []

    def note(self, *what):
        self.entries.append((self.sim.now, *what))


class Run(NamedTuple):
    """One run: its log, the kind of entry that is an arrival, the instants
    at which an item completed, sampled state (time, value) and totals."""

    log: list
    arrival: str
    completions: set
    held: list
    totals: tuple

    def ties(self):
        """Instants at which an arrival met a completion."""
        return {t for t, kind, *_rest in self.log if kind == self.arrival} & self.completions


def agree(got, want):
    """Equal up to the first instant at which an arrival meets a
    completion in either run, and equal throughout if there is none."""
    tie = min(got.ties() | want.ties(), default=None)
    event("an arrival meets a completion" if tie is not None else "no arrival meets a completion")
    if tie is None:
        # piecewise, so that a failure names what diverged
        for mine, theirs in zip(got, want):
            assert mine == theirs
        return
    for mine, theirs in ((got.log, want.log), (got.held, want.held)):
        assert [e for e in mine if e[0] < tie] == [e for e in theirs if e[0] < tie]


# -- the Ethernet segment ------------------------------------------------------------------

GRID = st.integers(0, 12).map(lambda n: n * FRAME_NS)
INSTANTS = GRID | st.integers(0, 12 * FRAME_NS)
SIZES = st.sampled_from([0, 46, 100, 1500]) | st.integers(0, 1500)
#: how a station answers an original frame: not, at once, or after a delay
ANSWERS = st.none() | st.just(0) | st.integers(1, 12).map(lambda n: n * FRAME_NS)


@st.composite
def ethernet_scripts(draw):
    n = draw(st.integers(2, 5))
    stations = draw(st.lists(st.tuples(st.booleans(), ANSWERS), min_size=n, max_size=n))
    dests = st.integers(0, n - 1) | st.just("broadcast") | st.just("stranger")
    sends = draw(st.lists(st.tuples(INSTANTS, st.integers(0, n - 1), dests, SIZES),
                          min_size=1, max_size=20))
    return draw(st.integers(1, 4)), stations, sends


class EthernetWorld:
    """Stations on one segment; an event-loop profiler slot notes the
    instants at which a frame ends (``frames_carried`` moves)."""

    def __init__(self, ethernet_class, max_queue, stations):
        self.sim = Simulator()
        self.log = Log(self.sim)
        self.ether = ethernet_class(self.sim, max_queue=max_queue)
        self.completions = set()
        self.carried = 0
        self.sim.profiler = self
        self.stations = []
        self.answers = []
        for i, (promiscuous, answer) in enumerate(stations):
            station = self.ether.attach(Uid(0xE0 + i), f"s{i}")
            station.promiscuous = promiscuous
            station.on_receive = self._receiver(i)
            self.stations.append(station)
            self.answers.append(answer)

    def _receiver(self, i):
        def receive(src, dest, size, payload):
            self.log.note("rx", i, src, dest, size, payload)
            answer = self.answers[i]
            if answer is None or payload[0] != "send":
                return
            if answer:
                self.sim.after(answer, self.send, i, src, size, ("answer", payload[1], i))
            else:
                self.send(i, src, size, ("answer", payload[1], i))
        return receive

    def begin_run(self):
        pass

    def end_run(self):
        pass

    def account_call(self, fn, elapsed_ns):
        if self.ether.frames_carried != self.carried:
            self.carried = self.ether.frames_carried
            self.completions.add(self.sim.now)

    def send(self, i, dest, size, payload):
        self.log.note("tx", i, payload, self.stations[i].send(dest, size, payload))

    def play(self, sends):
        for number, (instant, i, dest, size) in enumerate(sends):
            uid = {"broadcast": ETHERNET_BROADCAST, "stranger": STRANGER}.get(dest)
            uid = self.stations[dest].uid if uid is None else uid
            self.sim.at(instant, self.send, i, uid, size, ("send", number))
        self.sim.run()
        ether = self.ether
        return Run(self.log.entries, "tx", self.completions, [], (
            ether.frames_carried, ether.frames_dropped, ether.bytes_carried,
            [s.received for s in self.stations]))


@settings(max_examples=300, deadline=None)
@given(ethernet_scripts())
def test_the_segment_carries_as_the_loop_did(script):
    max_queue, stations, sends = script
    agree(EthernetWorld(Ethernet, max_queue, stations).play(sends),
          EthernetWorld(NaiveEthernet, max_queue, stations).play(sends))


def test_a_busy_segment_refuses_beyond_its_bound_and_serves_in_order():
    """Three frames at one instant on a bound of one: the first starts,
    the second waits, the third is refused; an answer sent from inside a
    hand-up is refused while a frame waits and goes when none does."""
    for ethernet_class in (Ethernet, NaiveEthernet):
        world = EthernetWorld(ethernet_class, 1, [(False, None), (False, 0)])
        run = world.play([(0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)])
        log, (carried, dropped, _bytes, _counts) = run.log, run.totals
        sends = [entry for entry in log if entry[1] == "tx"]
        assert [ok for *_rest, ok in sends] == [True, True, False, False, True]
        assert (carried, dropped) == (3, 2)
        assert [t for t, kind, *_rest in log if kind == "rx"] == [
            FRAME_NS, 2 * FRAME_NS, 3 * FRAME_NS]


def verdicts(ethernet_class, stations, sends):
    """Whether each send was taken, by its payload."""
    run = EthernetWorld(ethernet_class, 1, stations).play(sends)
    return {payload: ok for _t, kind, _i, payload, *ok in run.log if kind == "tx"}


def test_declared_an_answer_from_a_hand_up_starts_at_once():
    """Stations 1 and 2 answer a broadcast from inside their hand-ups: the
    first answer finds the medium free and goes on the wire, so the second
    is the only one waiting; the loop queued both and refused the second."""
    stations, sends = [(False, None), (False, 0), (False, 0)], [(0, 0, "broadcast", 0)]
    answer = ("answer", 0, 2)
    assert verdicts(Ethernet, stations, sends)[answer] == [True]
    assert verdicts(NaiveEthernet, stations, sends)[answer] == [False]


def test_declared_an_arrival_between_a_completion_and_the_wake_up_sees_it_waiting():
    """At 2 frame times station 2's delayed answer is dispatched after
    station 1's answer completes and before the wake-up that starts station
    3's: it sees one waiting and is refused.  The loop had refused station
    3's answer (difference 1) and so took station 2's."""
    stations = [(False, None), (False, 0), (False, FRAME_NS), (False, 0)]
    sends = [(0, 0, "broadcast", 0)]
    new, loop = (verdicts(cls, stations, sends) for cls in (Ethernet, NaiveEthernet))
    assert (new[("answer", 0, 2)], new[("answer", 0, 3)]) == ([False], [True])
    assert (loop[("answer", 0, 2)], loop[("answer", 0, 3)]) == ([True], [False])


# -- a slow host's receive processing -------------------------------------------------------

ARRIVALS = st.integers(0, 30).map(lambda n: n * 500)
#: what a hand-up brings: nothing, or an arrival at once or later
THEN = st.none() | st.sampled_from([0, 500, 1000, 2500])


def packet(sim, size):
    return Packet(dest_short=0x20, src_short=0x21, data_bytes=size,
                  packet_id=sim.new_packet_id())


@st.composite
def host_scripts(draw):
    arrivals = draw(st.lists(st.tuples(ARRIVALS, st.integers(0, 1500), THEN),
                             min_size=1, max_size=20))
    one = packet(Simulator(), 0).wire_bytes
    buffer_bytes = draw(st.integers(one, 3 * (one + 1500)))
    return draw(st.sampled_from([1, 250, 500, 1000, 1750])), buffer_bytes, arrivals


class HostWorld:
    """One controller fed by scheduled arrivals on its active port; an
    event-loop profiler slot samples ``_rx_held`` after every event."""

    def __init__(self, controller_class, processing_ns, buffer_bytes):
        self.sim = Simulator()
        self.log = Log(self.sim)
        self.controller = controller_class(self.sim, "h", Uid(0x1))
        self.controller.rx_buffer_bytes = buffer_bytes
        self.controller.rx_processing_ns = processing_ns
        self.controller.on_receive = self.hand_up
        self.then = {}
        self.held = [(0, 0)]
        self.sim.profiler = self

    def begin_run(self):
        pass

    def end_run(self):
        pass

    def account_call(self, fn, elapsed_ns):
        held = self.controller._rx_held
        if held != self.held[-1][1]:
            self.held.append((self.sim.now, held))

    def arrive(self, size, then):
        pkt = packet(self.sim, size)
        self.then[pkt.packet_id] = (size, then)
        self.log.note("arrive", pkt.packet_id)
        self.controller._rx_complete(self.controller.active_port, pkt)

    def hand_up(self, pkt):
        self.log.note("up", pkt.packet_id)
        size, then = self.then[pkt.packet_id]
        if then == 0:
            self.arrive(size // 2, None)
        elif then is not None:
            self.sim.after(then, self.arrive, size // 2, None)

    def play(self, arrivals):
        for instant, size, then in arrivals:
            self.sim.at(instant, self.arrive, size, then)
        self.sim.run()
        c = self.controller
        ups = {t for t, kind, *_rest in self.log.entries if kind == "up"}
        return Run(self.log.entries, "arrive", ups, self.held,
                   (c.packets_dropped_rx, c.packets_received))


@settings(max_examples=300, deadline=None)
@given(host_scripts())
def test_a_slow_host_hands_up_as_the_loop_did(script):
    processing_ns, buffer_bytes, arrivals = script
    agree(HostWorld(HostController, processing_ns, buffer_bytes).play(arrivals),
          HostWorld(NaiveController, processing_ns, buffer_bytes).play(arrivals))


def test_a_full_receive_buffer_drops_until_a_hand_up_frees_it():
    """Room for one packet: the second arrival is dropped while the first
    is processed, the third (after the hand-up) is taken."""
    size = packet(Simulator(), 100).wire_bytes
    for controller_class in (HostController, NaiveController):
        world = HostWorld(controller_class, 1000, size)
        run = world.play([(0, 100, None), (500, 100, None), (1500, 100, None)])
        log, (dropped, received), held = run.log, run.totals, run.held
        assert [entry for entry in log if entry[1] == "up"] == [(1000, "up", 1),
                                                               (2500, "up", 3)]
        assert (dropped, received) == (1, 2)
        assert held == [(0, 0), (0, size), (1000, 0), (1500, size), (2500, 0)]


def test_declared_a_hand_up_and_an_arrival_swap_at_a_completion():
    """Packet 2 arrives as packet 1 completes and starts at once, ahead of
    the arrival packet 1's hand-up brings for 500 ns later: at 1 000 packet
    2 goes up before packet 3 arrives.  The loop started packet 2 inside
    packet 1's completion, after that arrival was scheduled."""
    runs = [HostWorld(cls, 500, 108).play([(0, 0, 500), (500, 0, None)])
            for cls in (HostController, NaiveController)]
    new, loop = ([entry for entry in run.log if entry[0] == 1000] for run in runs)
    assert new == [(1000, "up", 2), (1000, "arrive", 3)]
    assert loop == [(1000, "arrive", 3), (1000, "up", 2)]
