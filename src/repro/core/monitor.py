"""Port-state monitoring: the status sampler and connectivity monitor
(sections 6.5.3, 6.5.4), with the skeptics of 6.5.5 providing hysteresis.

The status sampler periodically reads each link unit's status bits,
accumulates per-condition counts, and classifies ports among s.dead,
s.checking, s.host, and s.switch.who.  The connectivity monitor verifies
s.switch.* ports end-to-end by exchanging test packets with the
neighboring switch, distinguishing s.switch.who / s.switch.loop /
s.switch.good.  Transitions in or out of s.switch.good trigger a
network-wide reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.constants import PORTS_PER_SWITCH
from repro.core.messages import ConnectivityProbe, ConnectivityReply
from repro.core.portstate import RECONFIGURING_TRANSITIONS, PortState, transition_allowed
from repro.core.skeptic import ConnectivitySkeptic, SkepticParams, StatusSkeptic
from repro.net.flowcontrol import Directive
from repro.net.linkunit import (
    BAD_CODE, BAD_SYNTAX, IDHY_SEEN, IS_HOST, OVERFLOW, PROGRESS_SEEN, START_SEEN, STOP_SEEN,
    UNDERFLOW,
)
from repro.sim.trace import CAT_PORT
from repro.types import Uid


@dataclass
class MonitorParams:
    """Timing and thresholds for the monitoring layers."""

    #: status-sampler period
    sample_period_ns: int = 10_000_000  # 10 ms
    #: consecutive bad samples that send a working port to s.dead
    bad_sample_limit: int = 3
    #: samples spent in s.checking before classifying host vs switch
    classify_samples: int = 5
    #: consecutive samples without StartSeen that indicate a blockage
    blockage_sample_limit: int = 50
    #: consecutive samples without ProgressSeen indicating stuck hardware
    progress_sample_limit: int = 50
    #: connectivity probe period
    probe_period_ns: int = 200_000_000  # 200 ms
    #: consecutive unanswered probes that demote s.switch.good
    probe_miss_limit: int = 2
    skeptic: SkepticParams = field(default_factory=SkepticParams)
    conn_skeptic_base: int = 2
    conn_skeptic_growth: float = 2.0
    #: send the panic directive to clear a blockage before declaring the
    #: port dead (section 6.1's unimplemented facility; off = paper)
    use_panic: bool = False


@dataclass
class NeighborInfo:
    """Identity of the switch at the far end of a port."""

    uid: Uid
    port: int


class PortMonitor:
    """Per-port classification state."""

    def __init__(self, port_no: int, params: MonitorParams) -> None:
        self.port_no = port_no
        self.params = params
        self.state = PortState.DEAD
        #: the status word this port shows while nothing happens (-1: none,
        #: s.dead and s.checking count every sample); set on each transition
        self.quiet = -1
        self.status_skeptic = StatusSkeptic(params.skeptic)
        self.conn_skeptic = ConnectivitySkeptic(
            base_required=params.conn_skeptic_base,
            growth=params.conn_skeptic_growth,
        )
        # sampler accounting
        self.clean_samples = 0
        self.bad_streak = 0
        self.checking_samples = 0
        self.no_start_streak = 0
        self.no_progress_streak = 0
        self.host_anomaly_streak = 0
        # connectivity accounting
        self.nonce = 0
        self.awaiting_nonce: Optional[int] = None
        self.consecutive_good = 0
        self.probe_misses = 0
        self.neighbor: Optional[NeighborInfo] = None

    def settled(self) -> bool:
        """At the sampler's fixed point: no streak running and both
        skeptics fully decayed, so a quiet sample changes nothing."""
        return not (
            self.bad_streak or self.no_start_streak or self.no_progress_streak
            or self.host_anomaly_streak
        ) and (
            self.status_skeptic.hold_ns <= self.status_skeptic.params.min_hold_ns
            and self.conn_skeptic.required <= self.conn_skeptic.base_required
        )

    def reset_conn(self) -> None:
        self.awaiting_nonce = None
        self.consecutive_good = 0
        self.probe_misses = 0
        self.neighbor = None


class Monitoring:
    """The sampler + monitor pair for one switch's Autopilot.

    ``autopilot`` must provide: ``sim``, ``uid``, ``switch`` (for link
    units), ``send_one_hop(port, message)``, ``trigger_reconfiguration
    (reason)``, ``host_ports_changed()``, and ``log(event, detail)``.
    """

    def __init__(self, autopilot, params: MonitorParams) -> None:
        self.ap = autopilot
        self.params = params
        self.ports: Dict[int, PortMonitor] = {
            p: PortMonitor(p, params)
            for p in range(1, PORTS_PER_SWITCH + 1)
        }
        # all ports boot dead and send idhy
        for port in self.ports:
            self._apply_dead_actions(port)
        # working state -> the status word of a port on which nothing is
        # happening (sample_all); none if some limit is so low that even a
        # zero streak reaches it, so that every sample has to be counted
        quiet = START_SEEN | PROGRESS_SEEN
        low = min(params.bad_sample_limit, params.blockage_sample_limit // 2,
                  params.progress_sample_limit // 2) < 1
        self._quiet = {} if low else {
            PortState.HOST: IS_HOST | quiet, PortState.SWITCH_WHO: quiet,
            PortState.SWITCH_LOOP: quiet, PortState.SWITCH_GOOD: quiet,
        }

    # -- public views ------------------------------------------------------------------

    def state_of(self, port: int) -> PortState:
        return self.ports[port].state

    def good_ports(self) -> Tuple[int, ...]:
        return tuple(
            p for p, mon in sorted(self.ports.items())
            if mon.state is PortState.SWITCH_GOOD
        )

    def is_good(self, port: int) -> bool:
        mon = self.ports.get(port)
        return mon is not None and mon.state is PortState.SWITCH_GOOD

    def host_ports(self) -> Tuple[int, ...]:
        return tuple(
            p for p, mon in sorted(self.ports.items()) if mon.state is PortState.HOST
        )

    def neighbor_of(self, port: int) -> Optional[NeighborInfo]:
        return self.ports[port].neighbor

    # -- state transitions ---------------------------------------------------------------

    def _transition(self, port: int, new_state: PortState, reason: str) -> None:
        mon = self.ports[port]
        old = mon.state
        if new_state is old:
            return
        if not transition_allowed(old, new_state):
            raise ValueError(
                f"port {port}: {old.value}->{new_state.value} ({reason}) "
                f"is not an arrow of Figure 8"
            )
        now = self.ap.sim.now
        mon.state = new_state
        mon.quiet = self._quiet.get(new_state, -1)
        self.ap.log("port-state", f"port={port} {old.value}->{new_state.value} ({reason})")
        rec = self.ap.sim.recorder
        if rec is not None:
            # advances the causal context: the reconfiguration trigger a
            # few lines down chains to this transition
            rec.record(
                now,
                self.ap.switch.name,
                CAT_PORT,
                "port-state",
                port=port,
                old=old.value,
                new=new_state.value,
                reason=reason,
            )

        if new_state is PortState.DEAD:
            self._apply_dead_actions(port)
            mon.status_skeptic.on_failure(now)
            mon.clean_samples = 0
            mon.bad_streak = 0
            # or the streak that killed it kills it again on re-joining
            mon.no_start_streak = mon.no_progress_streak = mon.host_anomaly_streak = 0
            mon.reset_conn()
        else:
            if old is PortState.DEAD:
                # leaving s.dead: resume normal flow control
                self.ap.switch.ports[port].force_directive(None)
                mon.status_skeptic.on_good_period_start(now)

        if new_state is PortState.CHECKING:
            mon.checking_samples = 0
        if new_state is PortState.SWITCH_GOOD:
            mon.conn_skeptic.on_promoted(now)
        if old is PortState.SWITCH_GOOD and new_state is not PortState.SWITCH_GOOD:
            mon.conn_skeptic.on_demotion(now)

        if old is PortState.HOST or new_state is PortState.HOST:
            self.ap.host_ports_changed()

        if (old, new_state) in RECONFIGURING_TRANSITIONS:
            down_port = port if old is PortState.SWITCH_GOOD else None
            self.ap.trigger_reconfiguration(
                f"port {port}: {old.value}->{new_state.value}",
                down_port=down_port,
            )

    def _apply_dead_actions(self, port: int) -> None:
        """s.dead: send idhy so the far port drops to s.checking too, and
        clear out anything backed up (FIFO contents, held grants)."""
        unit = self.ap.switch.ports[port]
        unit.force_directive(Directive.IDHY)
        self.ap.switch.isolate_port(port)

    # -- the status sampler (runs every sample_period) ----------------------------------------

    def sample_all(self) -> None:
        units = self.ap.switch.ports
        for port, mon in self.ports.items():
            unit = units[port]
            if unit.link is None:
                continue
            word = unit.sample_status()
            # the link unit has latched the bits; a settled port showing
            # its quiet pattern is _sample_port's fixed point: every streak
            # it would zero is zero and neither skeptic has decay to credit
            if word == mon.quiet and mon.settled():
                continue
            self._sample_port(port, word)

    def _sample_port(self, port: int, word: int) -> None:
        mon = self.ports[port]
        now = self.ap.sim.now
        state = mon.state
        hard_bad = word & (BAD_CODE | OVERFLOW | UNDERFLOW)

        if state is PortState.DEAD:
            # idhy received is not an error while dead (section 6.5.3)
            if hard_bad:
                mon.clean_samples = 0
            else:
                mon.clean_samples += 1
            clean_ns = mon.clean_samples * self.params.sample_period_ns
            if clean_ns >= mon.status_skeptic.required_hold():
                self._transition(port, PortState.CHECKING, "clean holding period")
            return

        mon.status_skeptic.credit_good_time(now)
        mon.conn_skeptic.credit_good_time(now)

        # bad status accounting (BadSyntax tolerated on host ports: the
        # alternate-port fingerprint is constant BadSyntax)
        bad = hard_bad
        if state in (PortState.SWITCH_WHO, PortState.SWITCH_LOOP, PortState.SWITCH_GOOD):
            bad = bad or word & BAD_SYNTAX
        if bad:
            mon.bad_streak += 1
        else:
            mon.bad_streak = 0
        if mon.bad_streak >= self.params.bad_sample_limit:
            self._transition(port, PortState.DEAD, "bad status counts")
            return

        # idhy from the far side: it has declared the link defective and
        # requires us to classify it no better than s.checking (§6.1)
        if state is not PortState.CHECKING and word & IDHY_SEEN:
            self._transition(port, PortState.DEAD, "idhy received")
            return

        if state is PortState.CHECKING:
            if word & IDHY_SEEN:
                mon.checking_samples = 0  # wait for idhy to cease
                return
            mon.checking_samples += 1
            if mon.checking_samples < self.params.classify_samples:
                return
            if word & IS_HOST:
                self._transition(port, PortState.HOST, "host directive")
            elif word & BAD_SYNTAX and not word & START_SEEN:
                # constant BadSyntax, nothing else: an alternate host port
                self._transition(port, PortState.HOST, "alternate host fingerprint")
            elif word & START_SEEN:
                self._transition(port, PortState.SWITCH_WHO, "start directive")
            else:
                mon.checking_samples = 0  # nothing conclusive yet
            return

        # long-term blockage removal (section 6.5.3): intervals during
        # which ONLY stop directives are received (an alternate host port
        # receives nothing at all and must stay s.host), or a waiting
        # packet making no progress
        if state in (PortState.HOST, PortState.SWITCH_GOOD):
            if word & STOP_SEEN and not word & START_SEEN:
                mon.no_start_streak += 1
            else:
                mon.no_start_streak = 0
            if word & PROGRESS_SEEN:
                mon.no_progress_streak = 0
            else:
                mon.no_progress_streak += 1
            if self.params.use_panic and (
                mon.no_start_streak == self.params.blockage_sample_limit // 2
                or mon.no_progress_streak == self.params.progress_sample_limit // 2
            ):
                # try resetting the far link unit before giving up on the
                # port (the panic facility of section 6.1)
                self.ap.switch.ports[port].send_panic()
            if mon.no_start_streak >= self.params.blockage_sample_limit:
                self._transition(port, PortState.DEAD, "no start directives")
                return
            if mon.no_progress_streak >= self.params.progress_sample_limit:
                self._transition(port, PortState.DEAD, "no forwarding progress")
                return

        # a host port that begins sending switch flow control: recabled,
        # or reflecting its own directives because the host powered off
        # (the section 7 broadcast-storm cause).  Like other
        # classification decisions this uses a confirmation window.
        if state is PortState.HOST and word & START_SEEN and not word & IS_HOST:
            mon.host_anomaly_streak += 1
            if mon.host_anomaly_streak >= self.params.classify_samples:
                self._transition(port, PortState.DEAD, "host port now sends start")
        else:
            mon.host_anomaly_streak = 0

    # -- the connectivity monitor (runs every probe_period) --------------------------------------

    def probe_all(self) -> None:
        for port, mon in self.ports.items():
            if not mon.state.is_switch:
                continue
            self._account_miss(port)
            mon.nonce += 1
            mon.awaiting_nonce = mon.nonce
            self.ap.send_one_hop(
                port,
                ConnectivityProbe(
                    epoch=self.ap.epoch,
                    sender_uid=self.ap.uid,
                    msg_id=self.ap.sim.new_msg_id(),
                    nonce=mon.nonce,
                    sender_port=port,
                ),
            )

    def _account_miss(self, port: int) -> None:
        mon = self.ports[port]
        if mon.awaiting_nonce is None:
            return
        mon.probe_misses += 1
        mon.consecutive_good = 0
        if (
            mon.state in (PortState.SWITCH_GOOD, PortState.SWITCH_LOOP)
            and mon.probe_misses >= self.params.probe_miss_limit
        ):
            mon.reset_conn()
            self._transition(port, PortState.SWITCH_WHO, "probe replies missing")

    def on_probe(self, in_port: int, msg: ConnectivityProbe) -> None:
        """Answer a neighbor's connectivity test packet."""
        self.ap.send_one_hop(
            in_port,
            ConnectivityReply(
                epoch=self.ap.epoch,
                sender_uid=self.ap.uid,
                msg_id=self.ap.sim.new_msg_id(),
                nonce=msg.nonce,
                echo_uid=msg.sender_uid,
                echo_port=msg.sender_port,
                sender_port=in_port,
            ),
        )

    def on_probe_reply(self, in_port: int, msg: ConnectivityReply) -> None:
        mon = self.ports.get(in_port)
        if mon is None or not mon.state.is_switch:
            return
        # accept only a reply to our outstanding probe that echoes us
        if (
            msg.nonce != mon.awaiting_nonce
            or msg.echo_uid != self.ap.uid
            or msg.echo_port != in_port
        ):
            return
        mon.awaiting_nonce = None
        mon.probe_misses = 0

        # Figure 8's gray arrows are who <-> loop and who <-> good only:
        # every change of neighbor passes through s.switch.who
        looped = msg.sender_uid == self.ap.uid
        reply_from = NeighborInfo(uid=msg.sender_uid, port=msg.sender_port)
        if mon.state is PortState.SWITCH_GOOD:
            if not looped and mon.neighbor == reply_from:
                return
            mon.reset_conn()
            self._transition(in_port, PortState.SWITCH_WHO, "neighbor changed")
            if not looped:
                return
        if looped:
            # a looped or reflecting link: of no use in the configuration
            mon.consecutive_good = 0
            self._transition(in_port, PortState.SWITCH_LOOP, "own UID echoed")
            return

        if mon.state is PortState.SWITCH_LOOP:
            self._transition(in_port, PortState.SWITCH_WHO, "foreign UID echoed")
        mon.neighbor = reply_from
        mon.consecutive_good += 1
        if mon.conn_skeptic.satisfied(mon.consecutive_good):
            self._transition(in_port, PortState.SWITCH_GOOD, "responsive neighbor")
