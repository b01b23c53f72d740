"""The distributed reconfiguration algorithm (sections 4.1, 6.6).

Five steps, run by every operational switch:

1. Clear the forwarding table to one-hop entries only and exchange
   tree-position packets with neighbors (the Perlman-style election).
2. Topology reports accumulate up the forming tree as "I am stable"
   messages, using the termination-detection extension: a switch is
   *stable* when all neighbors have acknowledged its current position and
   all neighbors claiming it as parent have reported stable.
3. The root -- the one switch whose unstable->stable transition happens
   exactly once -- assigns switch numbers (short addresses).
4. The complete topology and assignment travel back down the tree.
5. Each switch computes and loads its own forwarding table and reopens.

Everything is tagged with the 64-bit epoch number of section 6.6.2: higher
epochs preempt lower ones, and any port-state change in or out of
s.switch.good during an epoch starts a new one, so each epoch operates on
a fixed link set.

For the E10 ablation, ``termination_mode='quiescence'`` replaces the
stability extension with plain Perlman plus a conservative quiet-period
timeout -- the thing the paper's extension exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.constants import CONTROL_PROCESSOR_PORT
from repro.core.addressing import assign_switch_numbers
from repro.core.messages import (
    AckMsg,
    ConfigMsg,
    ControlMessage,
    LinkDownMsg,
    StableMsg,
    TreePositionMsg,
)
from repro.core.routing import build_forwarding_entries
from repro.core.topo import (
    NetLink,
    PortRef,
    SwitchRecord,
    TopologyMap,
    merge_reports,
    relevel,
)
from repro.core.treepos import TreePosition, candidate_position
from repro.sim.engine import Event, cancel
from repro.sim.trace import CAT_TIMER
from repro.types import Uid


@dataclass
class ReconfigParams:
    """Protocol timing and modes."""

    #: retransmission period for unacknowledged control messages
    retx_period_ns: int = 25_000_000  # 25 ms
    #: give up and start a new epoch if no configuration arrives
    config_timeout_ns: int = 5_000_000_000  # 5 s
    #: 'stability' (the paper's extension) or 'quiescence' (plain Perlman
    #: with a timeout, for the E10 ablation)
    termination_mode: str = "stability"
    #: quiet period used in quiescence mode
    quiescence_timeout_ns: int = 300_000_000  # 300 ms
    #: whether loading the forwarding table resets the switch (section 7)
    reset_on_load: bool = True
    #: section 7 future work: handle the death of a non-spanning-tree
    #: link with a flooded delta + local table recomputation instead of a
    #: full epoch (the tree, levels, and addresses are unaffected, so
    #: up*/down* deadlock freedom is preserved).  Off = the paper.
    enable_local_reconfig: bool = False
    #: safety cap on retransmissions of one message
    max_retx: int = 400


class PeerState:
    """What we know about the switch on one of our good ports."""

    __slots__ = (
        "uid",
        "acked_seq",
        "accepts_me",
        "position",
        "their_seq",
        "stable_report",
        "report_version",
    )

    def __init__(self) -> None:
        #: the neighbor's UID as carried in its messages
        self.uid: Optional[Uid] = None
        #: highest of our position sequence numbers they acknowledged
        self.acked_seq = -1
        #: they claim us as their parent
        self.accepts_me = False
        #: their last reported position
        self.position: Optional[TreePosition] = None
        self.their_seq = -1
        #: their stable-subtree report (cleared when they move)
        self.stable_report: Optional[TopologyMap] = None
        self.report_version = 0


class _Pending:
    __slots__ = ("port", "message", "attempts", "event")

    def __init__(self, port: int, message: ControlMessage) -> None:
        self.port = port
        self.message = message
        self.attempts = 0
        self.event: Optional[Event] = None


class ReconfigEngine:
    """Per-switch reconfiguration state machine.

    ``ap`` is the owning Autopilot, providing identity, transport,
    monitoring views (``is_good`` among them), CPU accounting, and table
    loading (see :class:`repro.core.autopilot.Autopilot`).  Every
    reconfiguration message comes in through :meth:`receive`.
    """

    def __init__(self, ap, params: ReconfigParams) -> None:
        self.ap = ap
        self.params = params
        self.epoch = 0
        self.position = TreePosition.as_root(ap.uid)
        self.pos_seq = 0
        self.ports: Tuple[int, ...] = ()
        self.peers: Dict[int, PeerState] = {}
        self.configured = True  # nothing to configure before the first epoch
        #: the step-5 table load has completed for the current epoch
        self.table_loaded = True
        self.topology: Optional[TopologyMap] = None
        #: switch number remembered across epochs (section 6.6.3)
        self.my_number = 1
        self._pending: Dict[int, _Pending] = {}
        self._last_stable_sent: Optional[tuple] = None
        self._config_deadline: Optional[Event] = None
        self._last_pos_change = 0
        self._quiet_event: Optional[Event] = None
        # instrumentation
        self.epoch_started_at: int = 0
        self.epochs_initiated = 0
        self.epochs_joined = 0
        self.terminations = 0
        #: messages dropped because the arrival port was not (yet)
        #: s.switch.good -- see the gate in receive
        self.msgs_gated = 0
        #: message type -> (its step, whether one from an older epoch
        #: drags its sender forward); Autopilot routes these types here
        self.steps = {
            TreePositionMsg: (self.on_tree_position, True),
            AckMsg: (self.on_ack, False),
            StableMsg: (self.on_stable, True),
            ConfigMsg: (self.on_config, True),
            LinkDownMsg: (self.on_link_down, False),
        }

    @property
    def in_blackout(self) -> bool:
        """The switch cannot carry host traffic right now: its table
        holds only one-hop entries (step 1 ran) and step 5 has not yet
        reloaded it.  Sampled each tick by the time-series layer as the
        per-switch ``blackout_in_progress`` flag."""
        return not (self.configured and self.table_loaded)

    @property
    def phase(self) -> str:
        """Which reconfiguration phase this switch is in right now.

        ``election`` covers the paper's steps 1-3 (table cleared, the
        spanning tree still forming), ``loading`` is step 5 in progress
        (configuration adopted but the forwarding table not yet
        reloaded), and ``steady`` is normal operation.  Control-plane
        cost accounting labels every sent packet with the sender's
        phase, so a sweep can attribute control volume to tree election
        versus table distribution versus steady-state skepticism.
        """
        if self.configured:
            return "steady" if self.table_loaded else "loading"
        return "election"

    # -- the step function -----------------------------------------------------------

    def receive(self, port: int, message: ControlMessage) -> None:
        """One reconfiguration message in (section 6.6): gate, join, step."""
        if port != CONTROL_PROCESSOR_PORT and not self.ap.is_good(port):
            # An epoch's link set consists of s.switch.good ports (§6.6.2),
            # and the skeptics exist to bless a link before it can disturb
            # the network (§6.5.5).  A reconfiguration message arriving on
            # an unblessed port must not drag us into its epoch: a freshly
            # rebooted switch would otherwise join a stale in-flight epoch
            # with zero good ports, find itself vacuously stable, and
            # configure as a bogus one-switch network while its real
            # neighbors move on.  Drop it; retransmission and the port
            # state machine reconcile the views once the port is good.
            self.msgs_gated += 1
            return
        step, nudges = self.steps[type(message)]
        if self.maybe_join(message.epoch) != "old":
            step(port, message)
        elif nudges:
            self.nudge(port)  # drag the laggard forward

    # -- epoch management -------------------------------------------------------------

    def initiate(self, reason: str) -> None:
        """A relevant port-state change: add one to the epoch and restart."""
        self.epochs_initiated += 1
        self._start_epoch(self.epoch + 1, f"initiated: {reason}")

    def maybe_join(self, msg_epoch: int) -> str:
        """Classify a message's epoch: 'old', 'current', or 'joined'."""
        if msg_epoch < self.epoch:
            return "old"
        if msg_epoch == self.epoch:
            return "current"
        self.epochs_joined += 1
        self._start_epoch(msg_epoch, "joined higher epoch")
        return "joined"

    def _start_epoch(self, epoch: int, reason: str) -> None:
        self.epoch = epoch
        self.epoch_started_at = self.ap.sim.now
        self.ap.log("epoch-start", f"epoch={epoch} ({reason})")
        self.ap.obs_event("epoch-start", epoch=epoch, reason=reason)
        self._cancel_all_pending()
        self.position = TreePosition.as_root(self.ap.uid)
        self.pos_seq += 1  # sequence numbers stay unique across epochs
        self._last_pos_change = self.ap.sim.now
        self.ports = self.ap.good_ports()
        self.peers = {p: PeerState() for p in self.ports}
        self.configured = False
        self.table_loaded = False
        self._last_stable_sent = None
        # step 1: forward only one-hop packets from now on
        self.ap.clear_forwarding(reset=self.params.reset_on_load)
        self._send_position_everywhere()
        self._arm_config_deadline()
        self._check_stability()  # a switch with no good ports is already done

    def _arm_config_deadline(self) -> None:
        if self._config_deadline is not None:
            cancel(self._config_deadline)
        self._config_deadline = self.ap.sim.after(
            self.params.config_timeout_ns, self._config_timed_out, self.epoch
        )

    def halt(self) -> None:
        """The control processor stopped: silence every pending timer.

        A halted engine must never touch the switch hardware again.  The
        hardware is shared with whatever Autopilot boots after a restart,
        and a stale config-deadline firing minutes later would clear the
        forwarding table the successor just loaded (found by the chaos
        campaign: crash mid-reconfiguration, restart, wait out the old
        epoch's deadline).
        """
        if self._config_deadline is not None:
            cancel(self._config_deadline)
            self._config_deadline = None
        if self._quiet_event is not None:
            cancel(self._quiet_event)
            self._quiet_event = None
        self._cancel_all_pending()

    def _config_timed_out(self, epoch: int) -> None:
        if not self.ap.alive:
            return
        if epoch == self.epoch and not self.configured:
            self.ap.log("config-timeout", f"epoch={epoch}")
            self.ap.obs_event("config-timeout", epoch=epoch)
            self.initiate("configuration timeout")

    # -- reliable one-hop delivery ---------------------------------------------------------

    def _send_reliable(self, port: int, message: ControlMessage) -> None:
        pending = _Pending(port, message)
        self._pending[message.msg_id] = pending
        self._transmit(pending)

    def _transmit(self, pending: _Pending) -> None:
        pending.attempts += 1
        if pending.attempts > self.params.max_retx:
            self._pending.pop(pending.message.msg_id, None)
            return
        if pending.attempts > 1:
            acct = self.ap.sim.control
            if acct is not None:
                acct.record_retx(self.epoch, type(pending.message).__name__)
        self.ap.send_one_hop(pending.port, pending.message)
        pending.event = self.ap.sim.after(
            self.params.retx_period_ns, self._retransmit, pending
        )
        rec = self.ap.sim.recorder
        if rec is not None:
            rec.record(
                self.ap.sim.now,
                self.ap.switch.name,
                CAT_TIMER,
                "retx-arm",
                advance=False,
                msg_id=pending.message.msg_id,
                msg=type(pending.message).__name__,
                attempts=pending.attempts,
                port=pending.port,
            )

    def _retransmit(self, pending: _Pending) -> None:
        if pending.message.msg_id in self._pending:
            self._transmit(pending)

    def _cancel_pending(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is not None and pending.event is not None:
            cancel(pending.event)
            rec = self.ap.sim.recorder
            if rec is not None:
                rec.record(
                    self.ap.sim.now,
                    self.ap.switch.name,
                    CAT_TIMER,
                    "retx-cancel",
                    advance=False,
                    msg_id=msg_id,
                )

    def _cancel_all_pending(self, kind=None) -> None:
        for msg_id in list(self._pending):
            pending = self._pending[msg_id]
            if kind is None or isinstance(pending.message, kind):
                self._cancel_pending(msg_id)

    def _ack(self, port: int, message: ControlMessage, accepts: bool = False) -> None:
        acked_seq = message.pos_seq if isinstance(message, TreePositionMsg) else None
        self.ap.send_one_hop(
            port,
            AckMsg(
                epoch=self.epoch,
                sender_uid=self.ap.uid,
                msg_id=self.ap.sim.new_msg_id(),
                acked_msg_id=message.msg_id,
                acked_pos_seq=acked_seq,
                accepts_as_parent=accepts,
            ),
        )

    # -- step 1: tree formation -------------------------------------------------------------

    def _position_msg(self) -> TreePositionMsg:
        """Our current tree position, as a message to one neighbor."""
        parent_far = None
        if self.position.parent_port is not None:
            neighbor = self.ap.neighbor_of(self.position.parent_port)
            parent_far = neighbor.port if neighbor else None
        return TreePositionMsg(
            epoch=self.epoch,
            sender_uid=self.ap.uid,
            msg_id=self.ap.sim.new_msg_id(),
            root=self.position.root,
            level=self.position.level,
            pos_seq=self.pos_seq,
            parent_uid=self.position.parent_uid,
            parent_far_port=parent_far,
        )

    def _send_position_everywhere(self) -> None:
        self._cancel_all_pending(TreePositionMsg)
        for port in self.ports:
            self._send_reliable(port, self._position_msg())

    def _recompute_position(self) -> bool:
        """Adopt the best position among self-as-root and all neighbors."""
        best = TreePosition.as_root(self.ap.uid)
        for port, peer in self.peers.items():
            if peer.position is None or peer.uid is None:
                continue
            cand = candidate_position(
                peer.position.root, peer.position.level, peer.uid, port
            )
            if cand.better_than(best):
                best = cand
        if best != self.position:
            self.position = best
            self.pos_seq += 1
            self._last_pos_change = self.ap.sim.now
            self.ap.log(
                "position",
                f"root={best.root} level={best.level} parent_port={best.parent_port}",
            )
            if (
                self.configured
                and self.topology is not None
                and best.root != self.topology.root
            ):
                # The root changed under an adopted configuration: the
                # configuration came from a false root -- a switch whose
                # local stability test passed before news of a better root
                # reached it (possible on high-diameter topologies).  Drop
                # the stale configuration and rejoin the election, else the
                # true root waits forever for our stable report and every
                # epoch times out the same way.
                self._unconfigure("root changed after configuration")
            self._send_position_everywhere()
            self._schedule_quiet_check()
            return True
        return False

    def _unconfigure(self, reason: str) -> None:
        """Drop a configuration adopted earlier in the current epoch."""
        self.configured = False
        self.table_loaded = False
        self.topology = None
        self._last_stable_sent = None
        self._cancel_all_pending(ConfigMsg)
        self.ap.log("unconfigure", reason)
        self.ap.obs_event("unconfigure", epoch=self.epoch, reason=reason)
        self.ap.clear_forwarding(reset=self.params.reset_on_load)
        self._arm_config_deadline()

    # -- local reconfiguration (section 7 future work) -----------------------------------

    def _is_tree_link(self, link: NetLink) -> bool:
        if self.topology is None:
            return True
        for uid in (link.a.uid, link.b.uid):
            record = self.topology.switches.get(uid)
            if record is None:
                return True  # unknown endpoint: be conservative
            if (
                record.parent_uid is not None
                and record.parent_port == link.endpoint_at(uid).port
                and record.parent_uid == link.other_end(uid).uid
            ):
                return True
        return False

    def try_local_link_down(self, port: int) -> bool:
        """A good link on ``port`` died.  If it is a non-tree link of the
        current configuration, flood a delta and fix tables locally;
        returns False when a global reconfiguration is required."""
        if not self.params.enable_local_reconfig:
            return False
        if not self.configured or not self.table_loaded or self.topology is None:
            return False
        far = self.topology.neighbors(self.ap.uid).get(port)
        if far is None:
            return False
        link = NetLink(PortRef(self.ap.uid, port), far)
        if self._is_tree_link(link):
            return False
        self.ap.log("local-reconfig", f"link-down {link.a}--{link.b}")
        self.ap.broadcast_to_switches(
            LinkDownMsg(
                epoch=self.epoch,
                sender_uid=self.ap.uid,
                msg_id=self.ap.sim.new_msg_id(),
                link=link,
            )
        )
        self._apply_link_down(link)
        return True

    def on_link_down(self, port: int, msg: LinkDownMsg) -> None:
        """A flooded delta arrived: remove the link and recompute."""
        if not self.params.enable_local_reconfig:
            return
        if not self.configured or self.topology is None or msg.link is None:
            return  # a global reconfiguration is already under way
        if msg.link not in self.topology.links:
            return  # duplicate (both detecting switches flood)
        if self._is_tree_link(msg.link):
            self.initiate("link-down delta for a tree link")
            return
        self._apply_link_down(msg.link)

    def _apply_link_down(self, link: NetLink) -> None:
        """Recompute this switch's table against the reduced link set.

        Only minimum-hop route choices change; the tree, levels, and link
        directions do not, so the new routes are a subset of the same
        acyclic channel ordering: still deadlock-free during the
        transition even though switches apply the delta at different
        times."""
        reduced = TopologyMap(
            root=self.topology.root,
            switches=dict(self.topology.switches),
            links=set(self.topology.links) - {link},
            numbers=dict(self.topology.numbers),
        )
        self.topology = reduced
        self.ap.run_task(
            self._load_reduced,
            reduced,
            cost=self.ap.cpu.route_cost(len(reduced.switches))
            + self.ap.cpu.table_load_ns,
        )

    def _load_reduced(self, reduced: TopologyMap) -> None:
        """The task :meth:`_apply_link_down` queues: compute and load."""
        if self.topology is not reduced or not self.configured:
            return  # superseded by a global reconfiguration
        self.load_table(reduced)
        self.ap.log("local-reconfig-applied", f"links={len(reduced.links)}")

    def nudge(self, port: int) -> None:
        """A neighbor is in an older epoch: show it our current position."""
        if port in self.peers:
            self.ap.send_one_hop(port, self._position_msg())

    def on_tree_position(self, port: int, msg: TreePositionMsg) -> None:
        if port not in self.peers:
            # not in this epoch's link set: ack so the sender stops
            # retransmitting; monitoring will reconcile the views
            self._ack(port, msg, accepts=False)
            return
        peer = self.peers[port]
        peer.uid = msg.sender_uid
        if msg.pos_seq < peer.their_seq:
            self._ack(port, msg, accepts=(self.position.parent_port == port))
            return
        if msg.pos_seq > peer.their_seq:
            peer.their_seq = msg.pos_seq
            peer.position = TreePosition(
                root=msg.root, level=msg.level,
                parent_uid=msg.parent_uid, parent_port=None,
            )
            # the neighbor is recomputing: its old stable report is void
            if peer.stable_report is not None:
                peer.stable_report = None
            peer.accepts_me = (
                msg.parent_uid == self.ap.uid and msg.parent_far_port == port
            )
        self._recompute_position()
        self._ack(port, msg, accepts=(self.position.parent_port == port))
        self._check_stability()

    def on_ack(self, port: int, msg: AckMsg) -> None:
        self._cancel_pending(msg.acked_msg_id)
        peer = self.peers.get(port)
        if peer is None:
            return
        if msg.acked_pos_seq is not None:
            peer.acked_seq = max(peer.acked_seq, msg.acked_pos_seq)
            peer.accepts_me = msg.accepts_as_parent
        self._check_stability()

    # -- step 2: stability and topology reports -----------------------------------------------

    def on_stable(self, port: int, msg: StableMsg) -> None:
        if port not in self.peers:
            self._ack(port, msg)
            return
        peer = self.peers[port]
        peer.stable_report = msg.subtree
        peer.report_version += 1
        peer.accepts_me = True
        self._ack(port, msg)
        self._check_stability()

    def _my_record(self) -> SwitchRecord:
        return SwitchRecord(
            uid=self.ap.uid,
            level=self.position.level,
            parent_port=self.position.parent_port,
            parent_uid=self.position.parent_uid,
            host_ports=frozenset(self.ap.host_ports()),
            proposed_number=self.my_number,
        )

    def _my_links(self):
        links = []
        for port in self.ports:
            neighbor = self.ap.neighbor_of(port)
            if neighbor is None:
                continue
            links.append(
                NetLink(PortRef(self.ap.uid, port), PortRef(neighbor.uid, neighbor.port))
            )
        return links

    def _children_ports(self) -> Tuple[int, ...]:
        return tuple(
            p for p, peer in sorted(self.peers.items()) if peer.accepts_me
        )

    def _is_stable(self) -> bool:
        children = self._children_ports()
        if any(self.peers[p].stable_report is None for p in children):
            return False
        if self.params.termination_mode == "quiescence":
            quiet = self.ap.sim.now - self._last_pos_change
            return quiet >= self.params.quiescence_timeout_ns
        return all(peer.acked_seq >= self.pos_seq for peer in self.peers.values())

    def _schedule_quiet_check(self) -> None:
        if self.params.termination_mode != "quiescence":
            return
        if self._quiet_event is not None:
            cancel(self._quiet_event)
        self._quiet_event = self.ap.sim.after(
            self.params.quiescence_timeout_ns + 1, self._quiet_check, self.epoch
        )

    def _quiet_check(self, epoch: int) -> None:
        if not self.ap.alive:
            return
        if epoch == self.epoch and not self.configured:
            self._check_stability()

    def _check_stability(self) -> None:
        if self.configured or not self._is_stable():
            return
        merged = merge_reports(
            root=self.position.root,
            own=self._my_record(),
            own_links=self._my_links(),
            child_maps=[
                self.peers[p].stable_report for p in self._children_ports()
            ],
        )
        if self.position.root == self.ap.uid:
            # TERMINATION: the root's unstable->stable transition (§4.1)
            self.terminations += 1
            self.ap.log("termination", f"epoch={self.epoch} switches={len(merged.switches)}")
            self.ap.obs_event(
                "termination", epoch=self.epoch, switches=len(merged.switches)
            )
            self._assign_and_distribute(merged)
            return
        signature = (
            self.pos_seq,
            tuple(
                (p, self.peers[p].report_version) for p in self._children_ports()
            ),
        )
        if signature == self._last_stable_sent:
            return
        self._last_stable_sent = signature
        self._cancel_all_pending(StableMsg)
        assert self.position.parent_port is not None
        self._send_reliable(
            self.position.parent_port,
            StableMsg(
                epoch=self.epoch,
                sender_uid=self.ap.uid,
                msg_id=self.ap.sim.new_msg_id(),
                subtree=merged,
            ),
        )

    # -- steps 3-5: assignment, distribution, table load --------------------------------------------

    def _sanitize(self, merged: TopologyMap) -> TopologyMap:
        merged.links = {
            link
            for link in merged.links
            if link.a.uid in merged.switches and link.b.uid in merged.switches
            and not link.is_loop
        }
        return relevel(merged)

    def _assign_and_distribute(self, merged: TopologyMap) -> None:
        topology = self._sanitize(merged)
        cost = self.ap.cpu.assign_cost(len(topology.switches))
        self.ap.run_task(self._finish_assignment, self.epoch, topology, cost=cost)

    def _finish_assignment(self, epoch: int, topology: TopologyMap) -> None:
        """The root's assignment task: number the switches, adopt."""
        if epoch != self.epoch or self.configured:
            return  # superseded while computing the assignment
        if self.position.root != self.ap.uid:
            return  # no longer the root: our termination was premature
        topology.numbers = assign_switch_numbers(topology.switches)
        self._adopt_configuration(epoch, topology)

    def on_config(self, port: int, msg: ConfigMsg) -> None:
        self._ack(port, msg)
        if self.configured:
            return
        if msg.topology is None or self.ap.uid not in msg.topology.switches:
            return
        if msg.topology.root > self.position.root:
            # A configuration rooted at a worse UID than the root we already
            # know is stale: typically a false root's retransmission arriving
            # after we moved to the true root (its CPU was busy computing
            # tables when our ack arrived, so the retx timer won the race).
            self.ap.log("config-rejected", f"root={msg.topology.root}")
            return
        self._adopt_configuration(msg.epoch, msg.topology)

    def _adopt_configuration(self, epoch: int, topology: TopologyMap) -> None:
        self.configured = True
        self.topology = topology
        self.my_number = topology.numbers.get(self.ap.uid, self.my_number)
        if self._config_deadline is not None:
            cancel(self._config_deadline)
            self._config_deadline = None

        # step 4 continued: forward down the tree as recorded by the root
        for port in topology.children_ports(self.ap.uid):
            self._send_reliable(
                port,
                ConfigMsg(
                    epoch=epoch,
                    sender_uid=self.ap.uid,
                    msg_id=self.ap.sim.new_msg_id(),
                    topology=topology,
                ),
            )

        # step 5: compute and load our own forwarding table
        self.ap.run_task(
            self._load_configuration,
            epoch,
            topology,
            cost=self.ap.cpu.route_cost(len(topology.switches))
            + self.ap.cpu.table_load_ns,
        )

    def _load_configuration(self, epoch: int, topology: TopologyMap) -> None:
        """The task :meth:`_adopt_configuration` queues: compute and load."""
        if epoch != self.epoch or not self.configured:
            return  # superseded while computing
        self.load_table(topology)
        self.table_loaded = True
        self.ap.log(
            "configured",
            f"epoch={epoch} number={self.my_number} "
            f"switches={len(topology.switches)}",
        )
        self.ap.obs_event(
            "table-loaded", epoch=epoch, number=self.my_number,
            switches=len(topology.switches),
        )
        self.ap.on_configured(epoch, topology)

    def load_table(self, topology: TopologyMap) -> None:
        """Step 5's compute-and-load: this switch's rows of ``topology``."""
        entries = build_forwarding_entries(
            topology, self.ap.uid, my_host_ports=frozenset(self.ap.host_ports())
        )
        self.ap.load_forwarding(entries, reset=self.params.reset_on_load)
