"""ReconfigEngine state-machine unit tests against a stub Autopilot.

These pin down the termination-detection bookkeeping of section 6.6.1:
what exactly makes a switch *stable*, when stable reports are (re)sent,
and how epochs reset state -- without the full network around it.
"""


from repro.core.autopilot import CpuModel
from repro.core.messages import AckMsg, ConfigMsg, StableMsg, TreePositionMsg
from repro.core.monitor import NeighborInfo
from repro.core.reconfig import ReconfigEngine, ReconfigParams
from repro.core.topo import NetLink, PortRef, SwitchRecord, TopologyMap
from repro.sim.engine import Simulator
from repro.types import Uid


class StubAp:
    """The slice of Autopilot the engine needs, with captured transport."""

    def __init__(self, uid_value=0x50, good=(1, 2)):
        self.sim = Simulator()
        self.alive = True
        self.uid = Uid(uid_value)
        self.cpu = CpuModel.tuned()
        self._good = tuple(good)
        self._neighbors = {}
        self.sent = []          # (port, message)
        self.broadcasts = []
        self.cleared = 0
        self.loaded = []
        self.configured_events = []

    # transport
    def send_one_hop(self, port, message):
        self.sent.append((port, message))

    def broadcast_to_switches(self, message):
        self.broadcasts.append(message)

    # monitoring views
    def good_ports(self):
        return self._good

    def is_good(self, port):
        return port in self._good

    def host_ports(self):
        return ()

    def neighbor_of(self, port):
        return self._neighbors.get(port)

    def set_neighbor(self, port, uid_value, far_port=1):
        self._neighbors[port] = NeighborInfo(uid=Uid(uid_value), port=far_port)

    # table / cpu
    def clear_forwarding(self, reset=True):
        self.cleared += 1

    def load_forwarding(self, entries, reset=True):
        self.loaded.append(entries)

    def run_task(self, fn, *args, cost=0):
        self.sim.after(max(1, cost), fn, *args)

    def log(self, event, detail=""):
        pass

    def obs_event(self, event, **attrs):
        pass

    def on_configured(self, epoch, topology):
        self.configured_events.append(epoch)

    # helpers
    def positions_sent(self):
        return [(p, m) for p, m in self.sent if isinstance(m, TreePositionMsg)]

    def stables_sent(self):
        return [(p, m) for p, m in self.sent if isinstance(m, StableMsg)]


def make_engine(**kwargs):
    ap = StubAp(**kwargs)
    ap.set_neighbor(1, 0x10)
    ap.set_neighbor(2, 0x90)
    engine = ReconfigEngine(ap, ReconfigParams(retx_period_ns=10_000_000))
    return ap, engine


def tree_pos(sender_val, epoch, root_val, level, seq, parent=None, far_port=None):
    return TreePositionMsg(
        epoch=epoch, sender_uid=Uid(sender_val), root=Uid(root_val),
        level=level, pos_seq=seq, parent_uid=parent, parent_far_port=far_port,
    )


def test_initiate_clears_table_and_sends_positions():
    ap, engine = make_engine()
    engine.initiate("test")
    assert ap.cleared == 1
    assert engine.epoch == 1
    assert not engine.configured
    assert {p for p, _m in ap.positions_sent()} == {1, 2}


def test_adopts_better_root_and_resends():
    ap, engine = make_engine()
    engine.initiate("test")
    before = len(ap.positions_sent())
    engine.on_tree_position(1, tree_pos(0x10, 1, 0x10, 0, seq=1))
    assert engine.position.root == Uid(0x10)
    assert engine.position.level == 1
    assert engine.position.parent_port == 1
    assert len(ap.positions_sent()) >= before + 2  # new position to both


def test_worse_position_not_adopted():
    ap, engine = make_engine()
    engine.initiate("test")
    engine.on_tree_position(2, tree_pos(0x90, 1, 0x90, 0, seq=1))
    # 0x90 > own uid 0x50: we stay our own root
    assert engine.position.root == ap.uid


def test_not_stable_until_all_acks_current_seq():
    ap, engine = make_engine()
    engine.initiate("test")
    seq = engine.pos_seq
    engine.on_ack(1, AckMsg(epoch=1, sender_uid=Uid(0x10),
                            acked_pos_seq=seq, accepts_as_parent=False))
    assert not engine._is_stable()
    engine.on_ack(2, AckMsg(epoch=1, sender_uid=Uid(0x90),
                            acked_pos_seq=seq, accepts_as_parent=False))
    assert engine._is_stable()


def test_stale_ack_does_not_count():
    ap, engine = make_engine()
    engine.initiate("test")
    old_seq = engine.pos_seq
    engine.on_tree_position(1, tree_pos(0x10, 1, 0x10, 0, seq=1))  # seq bump
    engine.on_ack(1, AckMsg(epoch=1, sender_uid=Uid(0x10),
                            acked_pos_seq=old_seq, accepts_as_parent=False))
    engine.on_ack(2, AckMsg(epoch=1, sender_uid=Uid(0x90),
                            acked_pos_seq=old_seq, accepts_as_parent=False))
    assert not engine._is_stable()


def test_child_without_report_blocks_stability():
    ap, engine = make_engine()
    engine.initiate("test")
    seq = engine.pos_seq
    engine.on_ack(1, AckMsg(epoch=1, sender_uid=Uid(0x10),
                            acked_pos_seq=seq, accepts_as_parent=False))
    # port 2 claims us as parent but has not yet reported stable
    engine.on_ack(2, AckMsg(epoch=1, sender_uid=Uid(0x90),
                            acked_pos_seq=seq, accepts_as_parent=True))
    assert not engine._is_stable()
    subtree = TopologyMap(root=ap.uid)
    subtree.switches[Uid(0x90)] = SwitchRecord(Uid(0x90), 1, 1, ap.uid)
    engine.on_stable(2, StableMsg(epoch=1, sender_uid=Uid(0x90), subtree=subtree))
    assert engine._is_stable()


def test_new_position_from_child_invalidates_report():
    ap, engine = make_engine()
    engine.initiate("test")
    subtree = TopologyMap(root=ap.uid)
    subtree.switches[Uid(0x90)] = SwitchRecord(Uid(0x90), 1, 1, ap.uid)
    engine.on_stable(2, StableMsg(epoch=1, sender_uid=Uid(0x90), subtree=subtree))
    assert engine.peers[2].stable_report is not None
    engine.on_tree_position(2, tree_pos(0x90, 1, 0x10, 2, seq=5))
    assert engine.peers[2].stable_report is None


def test_stable_report_sent_once_per_signature():
    ap, engine = make_engine()
    engine.initiate("test")
    # adopt port 1's smaller root as parent; port 2 acks as non-child
    engine.on_tree_position(1, tree_pos(0x10, 1, 0x10, 0, seq=1))
    seq = engine.pos_seq
    engine.on_ack(1, AckMsg(epoch=1, sender_uid=Uid(0x10),
                            acked_pos_seq=seq, accepts_as_parent=False))
    engine.on_ack(2, AckMsg(epoch=1, sender_uid=Uid(0x90),
                            acked_pos_seq=seq, accepts_as_parent=False))
    count = len(engine_stables := ap.stables_sent())
    assert count == 1
    assert engine_stables[0][0] == 1  # to the parent port
    # a duplicate ack triggers the check again: no duplicate report
    engine.on_ack(2, AckMsg(epoch=1, sender_uid=Uid(0x90),
                            acked_pos_seq=seq, accepts_as_parent=False))
    assert len(ap.stables_sent()) == 1


def test_root_terminates_and_distributes():
    ap, engine = make_engine(uid_value=0x01)  # smallest: stays root
    engine.initiate("test")
    seq = engine.pos_seq
    for port, uid_value in ((1, 0x10), (2, 0x90)):
        subtree = TopologyMap(root=ap.uid)
        subtree.switches[Uid(uid_value)] = SwitchRecord(Uid(uid_value), 1, 1, ap.uid)
        engine.on_ack(port, AckMsg(epoch=1, sender_uid=Uid(uid_value),
                                   acked_pos_seq=seq, accepts_as_parent=True))
        engine.on_stable(port, StableMsg(epoch=1, sender_uid=Uid(uid_value),
                                         subtree=subtree))
    ap.sim.run(until=1_000_000_000)
    assert engine.terminations == 1
    assert engine.configured and engine.table_loaded
    assert ap.loaded, "root never loaded its own table"
    assert len(engine.topology.numbers) == 3


def test_higher_epoch_resets_state():
    ap, engine = make_engine()
    engine.initiate("test")
    engine.on_tree_position(1, tree_pos(0x10, 1, 0x10, 0, seq=1))
    assert engine.position.root == Uid(0x10)
    assert engine.maybe_join(5) == "joined"
    assert engine.epoch == 5
    assert engine.position.root == ap.uid  # back to self-as-root
    assert all(p.their_seq == -1 for p in engine.peers.values())


def test_old_epoch_classified():
    ap, engine = make_engine()
    engine.initiate("test")
    engine.initiate("again")
    assert engine.maybe_join(1) == "old"
    assert engine.maybe_join(2) == "current"


def test_config_adoption_loads_table():
    ap, engine = make_engine()
    engine.initiate("test")
    topology = TopologyMap(root=Uid(0x10))
    topology.switches[Uid(0x10)] = SwitchRecord(Uid(0x10), 0, None, None)
    topology.switches[ap.uid] = SwitchRecord(ap.uid, 1, 1, Uid(0x10))
    topology.links.add(NetLink(PortRef(Uid(0x10), 1), PortRef(ap.uid, 1)))
    topology.numbers = {Uid(0x10): 1, ap.uid: 2}
    engine.on_config(1, ConfigMsg(epoch=1, sender_uid=Uid(0x10), topology=topology))
    ap.sim.run(until=1_000_000_000)
    assert engine.configured and engine.table_loaded
    assert engine.my_number == 2
    assert ap.loaded


def test_no_configuration_before_the_deadline_starts_a_new_epoch():
    """Nothing configures epoch 1 within ``config_timeout_ns``: the
    deadline re-initiates, and the new epoch arms its own deadline."""
    ap, engine = make_engine()
    timeout = engine.params.config_timeout_ns
    engine.initiate("test")
    # port 1 acks our position, port 2 stays silent: never stable
    engine.receive(1, AckMsg(epoch=1, sender_uid=Uid(0x10),
                             acked_pos_seq=engine.pos_seq, accepts_as_parent=False))
    assert (engine.epoch, engine.epochs_initiated, ap.cleared) == (1, 1, 1)
    ap.sim.run(until=timeout - 1)
    assert (engine.epoch, engine.epochs_initiated, ap.cleared) == (1, 1, 1)
    ap.sim.run(until=timeout)
    assert (engine.epoch, engine.epochs_initiated, ap.cleared) == (2, 2, 2)
    assert not engine.configured
    # the re-armed deadline: epoch 2 times out one period later
    ap.sim.run(until=2 * timeout - 1)
    assert engine.epoch == 2
    ap.sim.run(until=2 * timeout)
    assert (engine.epoch, engine.epochs_initiated, ap.cleared) == (3, 3, 3)


def test_a_better_root_after_configuration_drops_it():
    """Configured under a false root (0x30), then a position rooted at
    0x10 arrives: the configuration is dropped and the deadline re-armed."""
    ap = StubAp()
    ap.set_neighbor(1, 0x30)
    ap.set_neighbor(2, 0x10)
    engine = ReconfigEngine(ap, ReconfigParams(retx_period_ns=10_000_000))
    timeout = engine.params.config_timeout_ns
    engine.initiate("test")
    engine.receive(1, tree_pos(0x30, 1, 0x30, 0, seq=1))
    assert engine.position.root == Uid(0x30)

    topology = TopologyMap(root=Uid(0x30))
    topology.switches[Uid(0x30)] = SwitchRecord(Uid(0x30), 0, None, None)
    topology.switches[ap.uid] = SwitchRecord(ap.uid, 1, 1, Uid(0x30))
    topology.links.add(NetLink(PortRef(Uid(0x30), 1), PortRef(ap.uid, 1)))
    topology.numbers = {Uid(0x30): 1, ap.uid: 2}
    engine.receive(1, ConfigMsg(epoch=1, sender_uid=Uid(0x30), topology=topology))
    assert engine.configured and engine.topology is topology
    assert engine._config_deadline is None
    assert ap.cleared == 1

    engine.receive(2, tree_pos(0x10, 1, 0x10, 0, seq=1))
    assert engine.position.root == Uid(0x10)
    assert not engine.configured and not engine.table_loaded
    assert engine.topology is None
    assert ap.cleared == 2
    assert engine._config_deadline is not None
    # the queued table load sees the drop and loads nothing
    ap.sim.run(until=timeout - 1)
    assert (ap.loaded, engine.epoch) == ([], 1)
    ap.sim.run(until=timeout)
    assert (engine.epoch, engine.epochs_initiated, ap.cleared) == (2, 2, 3)
