#!/usr/bin/env python3
"""Mutation audit: what does each rule of ``tests/test_discipline.py``
catch, and what catches it when the rule is not there?

A mutant is data -- the rule whose invariant it breaks, and one or more
``(file, old text, new text)`` edits of the real tree.  A rule keeps its
place while one of its mutants is caught by the rule alone; where tier-1
catches its first mutant, a second breaks the invariant another way.
Two ways to run them:

``--static``
    In memory, milliseconds: the mutated files go through the
    discipline's ``check`` and the rules that newly fire (beyond
    ``ALLOWED``) must equal the mutant's recorded ``flagged_by``; every
    rule must flag at least one mutant of its own.  This is the tier-1
    regression (``test_mutants.py``) and a CI step.

``--dynamic OUT``
    The evidence behind DESIGN.md's mutation table, minutes per mutant:
    each one is applied to a scratch copy of the checkout (run it from a
    clone of the commit under test), which then runs the discipline test,
    tier-1 without it and ``tests/staticcheck`` (so "caught" means caught
    by something other than the rules), and the identity manifest
    (``tests/identity.py``, every artifact's sha256 against the
    committed one) under hash seeds 0 and 1.  One ``OUT/<id>.json`` per
    mutant; ``--table OUT`` renders them as the Markdown table.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import re
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from tests.checkout import module_name  # noqa: E402
from tests.test_discipline import ALLOWED, RULES, check  # noqa: E402


@dataclass(frozen=True)
class Mutant:
    id: str
    #: the rule whose invariant the edit breaks
    rule: str
    what: str
    #: (repo-relative file, old text occurring exactly once, new text)
    edits: Tuple[Tuple[str, str, str], ...]
    #: the rules of this tree that newly fire on the mutated files
    flagged_by: Tuple[str, ...] = ()


_FUTURE = "from __future__ import annotations\n\n"


def _import(module: str, after: str) -> Tuple[str, str]:
    """The (old, new) pair that adds ``import module`` below line ``after``."""
    return after, f"{after}import {module}\n"


MUTANTS: List[Mutant] = [
    # -- the whole-program rules, deleted when the linter left src/ ----------------------
    Mutant(
        "RS501-retx-jitter", "RS501",
        "a wall-clock jitter helper in sim/timers.py staggers ReconfigEngine._transmit's after()",
        (
            ("src/repro/sim/timers.py",
             "from repro.sim.trace import CAT_TIMER\n",
             "from repro.sim.trace import CAT_TIMER\n"
             "\n\ndef jitter_ns(spread: int) -> int:\n"
             "    import time\n"
             "    return time.perf_counter_ns() % spread\n"),
            ("src/repro/core/reconfig.py",
             "from repro.sim.engine import Event, cancel\n",
             "from repro.sim.engine import Event, cancel\n"
             "from repro.sim.timers import jitter_ns\n"),
            ("src/repro/core/reconfig.py",
             "            self.params.retx_period_ns, self._retransmit, pending\n",
             "            self.params.retx_period_ns + jitter_ns(1024), "
             "self._retransmit, pending\n"),
        ),
        flagged_by=("RS101",),
    ),
    Mutant(
        "RS501-profiler-pace", "RS501",
        "obs/profiler.py (RS101 allowed) re-arms a heartbeat on the simulator after a "
        "measured duration",
        (
            ("src/repro/obs/profiler.py",
             "    def begin_run(self) -> None:\n"
             "        self._run_started = perf_counter_ns()\n",
             "    def begin_run(self) -> None:\n"
             "        self._run_started = perf_counter_ns()\n"
             "\n"
             "    def _since_begin(self) -> int:\n"
             "        return perf_counter_ns() - (self._run_started or 0)\n"
             "\n"
             "    def _heartbeat(self, sim: Any) -> None:\n"
             "        sim.after(1_000_000 + self._since_begin() % 1000, self._heartbeat, sim)\n"),
            ("src/repro/obs/profiler.py",
             "        stats = self._by_func.get(key)\n"
             "        if stats is None:\n",
             "        stats = self._by_func.get(key)\n"
             "        if not self.events and hasattr(getattr(fn, \"__self__\", None), \"sim\"):\n"
             "            self._heartbeat(fn.__self__.sim)\n"
             "        if stats is None:\n"),
        ),
    ),
    Mutant(
        "RS502-seed-or-entropy", "RS502",
        "Network seeds its RngRegistry with `seed or entropy()`: seed 0, the default, "
        "becomes OS entropy",
        (
            ("src/repro/network.py",
             "class Network:\n",
             "def _entropy_seed() -> int:\n"
             "    import os\n"
             "    return int.from_bytes(os.urandom(8), \"big\")\n"
             "\n\nclass Network:\n"),
            ("src/repro/network.py",
             "        self.rng = RngRegistry(seed)\n",
             "        self.rng = RngRegistry(seed=seed or _entropy_seed())\n"),
        ),
        flagged_by=("RS103",),
    ),
    Mutant(
        "RS502-hash-child-seed", "RS502",
        "RngRegistry.fork derives the child seed with hash() in a helper instead of sha256",
        (
            ("src/repro/sim/rng.py",
             "class RngRegistry:\n",
             "def _mix(seed: int, name: str) -> int:\n"
             "    return hash((seed, name)) & 0xFFFFFFFFFFFFFFFF\n"
             "\n\nclass RngRegistry:\n"),
            ("src/repro/sim/rng.py",
             "        return RngRegistry(self.child_seed(name))\n",
             "        return RngRegistry(seed=_mix(self.seed, name))\n"),
        ),
    ),
    Mutant(
        "RS503-retx-stagger", "RS503",
        "retransmits staggered by hash(str(uid)) % 1024, the hash taken in a helper",
        (
            ("src/repro/core/reconfig.py",
             "class ReconfigEngine:\n",
             "def _stagger_ns(uid: Uid) -> int:\n"
             "    return hash(str(uid)) % 1024\n"
             "\n\nclass ReconfigEngine:\n"),
            ("src/repro/core/reconfig.py",
             "            self.params.retx_period_ns, self._retransmit, pending\n",
             "            self.params.retx_period_ns + _stagger_ns(self.ap.uid), "
             "self._retransmit, pending\n"),
        ),
    ),
    Mutant(
        "RS503-probe-id-slot", "RS503",
        "connectivity probes delayed by an id()-derived slot, the id taken in a helper",
        (
            ("src/repro/core/monitor.py",
             "class Monitoring:\n",
             "def _slot_ns(mon: PortMonitor) -> int:\n"
             "    return id(mon) % 4096\n"
             "\n\nclass Monitoring:\n"),
            ("src/repro/core/monitor.py",
             "            self.ap.send_one_hop(\n"
             "                port,\n"
             "                ConnectivityProbe(\n"
             "                    epoch=self.ap.epoch,\n"
             "                    sender_uid=self.ap.uid,\n"
             "                    msg_id=self.ap.sim.new_msg_id(),\n"
             "                    nonce=mon.nonce,\n"
             "                    sender_port=port,\n"
             "                ),\n"
             "            )\n",
             "            self.ap.sim.after(\n"
             "                _slot_ns(mon),\n"
             "                self.ap.send_one_hop,\n"
             "                port,\n"
             "                ConnectivityProbe(\n"
             "                    epoch=self.ap.epoch,\n"
             "                    sender_uid=self.ap.uid,\n"
             "                    msg_id=self.ap.sim.new_msg_id(),\n"
             "                    nonce=mon.nonce,\n"
             "                    sender_port=port,\n"
             "                ),\n"
             "            )\n"),
        ),
    ),
    Mutant(
        "RS510-probe-dispatch", "RS510",
        "probe_all's is_switch guard rewritten as an if/elif dispatch that forgets s.switch.loop",
        (
            ("src/repro/core/monitor.py",
             "            if not mon.state.is_switch:\n"
             "                continue\n"
             "            self._account_miss(port)\n",
             "            if mon.state is PortState.DEAD or mon.state is PortState.CHECKING:\n"
             "                continue\n"
             "            elif mon.state is PortState.HOST:\n"
             "                continue\n"
             "            elif mon.state is PortState.SWITCH_LOOP:\n"
             "                continue\n"
             "            self._account_miss(port)\n"),
        ),
    ),
    Mutant(
        "RS510-miss-dispatch", "RS510",
        "_account_miss rewritten as early return + if/elif on the state, forgetting s.switch.loop",
        (
            ("src/repro/core/monitor.py",
             "        if (\n"
             "            mon.state in (PortState.SWITCH_GOOD, PortState.SWITCH_LOOP)\n"
             "            and mon.probe_misses >= self.params.probe_miss_limit\n"
             "        ):\n"
             "            mon.reset_conn()\n"
             "            self._transition(port, PortState.SWITCH_WHO, "
             "\"probe replies missing\")\n",
             "        if mon.probe_misses < self.params.probe_miss_limit:\n"
             "            return\n"
             "        if mon.state is PortState.SWITCH_GOOD:\n"
             "            mon.reset_conn()\n"
             "            self._transition(port, PortState.SWITCH_WHO, \"probe replies missing\")\n"
             "        elif mon.state is PortState.SWITCH_WHO or mon.state is PortState.HOST:\n"
             "            pass  # nothing to demote\n"),
        ),
    ),
    Mutant(
        "RS510-skip-checking", "RS510",
        "the sampler promotes a clean s.dead port straight to s.switch.who, skipping s.checking",
        (
            ("src/repro/core/monitor.py",
             "self._transition(port, PortState.CHECKING, \"clean holding period\")",
             "self._transition(port, PortState.SWITCH_WHO, \"clean holding period\")"),
        ),
    ),
    Mutant(
        "RS511-host-row-dropped", "RS511",
        "SAMPLER_TRANSITIONS loses its s.host row: no table has s.host as a source",
        (
            ("src/repro/core/portstate.py",
             "    PortState.HOST: frozenset({PortState.DEAD}),\n", ""),
        ),
    ),
    Mutant(
        "RS511-loop-row-dropped", "RS511",
        "SAMPLER_TRANSITIONS loses its s.switch.loop row (still a source in MONITOR_TRANSITIONS)",
        (
            ("src/repro/core/portstate.py",
             "    PortState.SWITCH_LOOP: frozenset({PortState.DEAD}),\n", ""),
        ),
    ),
    Mutant(
        "RS511-misspelt-member", "RS511",
        "MONITOR_TRANSITIONS names PortState.SWITCH_GOD",
        (
            ("src/repro/core/portstate.py",
             "    PortState.SWITCH_LOOP: frozenset({PortState.SWITCH_WHO}),\n",
             "    PortState.SWITCH_LOOP: frozenset({PortState.SWITCH_WHO}),\n"
             "    PortState.SWITCH_GOD: frozenset({PortState.SWITCH_WHO}),\n"),
        ),
    ),
    Mutant(
        "RS601-topology-memo", "RS601",
        "resolve_topology memoises the specs it builds in a module-level dict",
        (
            ("src/repro/topology/generators.py",
             "def resolve_topology(name: str) -> TopologySpec:\n",
             "_RESOLVED: Dict[str, TopologySpec] = {}\n"
             "\n\ndef resolve_topology(name: str) -> TopologySpec:\n"
             "    if name not in _RESOLVED:\n"
             "        _RESOLVED[name] = _resolve_topology(name)\n"
             "    return _RESOLVED[name]\n"
             "\n\ndef _resolve_topology(name: str) -> TopologySpec:\n"),
        ),
        flagged_by=("RS402",),
    ),
    Mutant(
        "RS601-host-plan-memo", "RS601",
        "CampaignRunner memoises its host plan in a module-level dict keyed by topology name "
        "alone",
        (
            ("src/repro/chaos/campaign.py",
             "class CampaignRunner:\n",
             "_HOST_PLANS: Dict[str, List[tuple]] = {}\n"
             "\n\nclass CampaignRunner:\n"),
            ("src/repro/chaos/campaign.py",
             "        plan = []\n        spec = self.spec\n",
             "        if self.spec.name in _HOST_PLANS:\n"
             "            return _HOST_PLANS[self.spec.name]\n"
             "        plan = _HOST_PLANS[self.spec.name] = []\n"
             "        spec = self.spec\n"),
        ),
    ),
    Mutant(
        "RS602-localnet-learned", "RS602",
        "LocalNet._learn keeps its address cache in a module-level dict shared by every host",
        (
            ("src/repro/host/localnet.py",
             "class LocalNet:\n",
             "_LEARNED: Dict[Uid, int] = {}\n"
             "\n\nclass LocalNet:\n"),
            ("src/repro/host/localnet.py",
             "            entry.updated_at = self.sim.now\n",
             "            entry.updated_at = self.sim.now\n"
             "        _LEARNED[uid] = short\n"),
        ),
        flagged_by=("RS402",),
    ),
    Mutant(
        "RS602-retx-log", "RS602",
        "ReconfigEngine._transmit appends every retransmit to a module-level list",
        (
            ("src/repro/core/reconfig.py",
             "class ReconfigEngine:\n",
             "_RETX_LOG: list = []\n"
             "\n\nclass ReconfigEngine:\n"),
            ("src/repro/core/reconfig.py",
             "        self.ap.send_one_hop(pending.port, pending.message)\n",
             "        self.ap.send_one_hop(pending.port, pending.message)\n"
             "        _RETX_LOG.append(pending.message.msg_id)\n"),
        ),
        flagged_by=("RS402",),
    ),
    # -- the fourteen rules: a second mutant where tier-1 catches the first ---------------
    Mutant(
        "RS101-transition-clock", "RS101",
        "Monitoring._transition stamps entered_at and the skeptics with time.monotonic_ns()",
        (
            ("src/repro/core/monitor.py", *_import("time", _FUTURE)),
            ("src/repro/core/monitor.py",
             "        now = self.ap.sim.now\n        mon.state = new_state\n",
             "        now = time.monotonic_ns()\n        mon.state = new_state\n"),
        ),
        flagged_by=("RS101",),
    ),
    Mutant(
        "RS101-wall-deadline", "RS101",
        "run_until_converged also gives up after 60 s of host time",
        (
            ("src/repro/network.py", *_import("time", _FUTURE)),
            ("src/repro/network.py",
             "        stable_since: Optional[int] = None\n"
             "        while self.sim.now < deadline:\n",
             "        stable_since: Optional[int] = None\n"
             "        wall_deadline = time.monotonic() + 60\n"
             "        while self.sim.now < deadline and time.monotonic() < wall_deadline:\n"),
        ),
        flagged_by=("RS101",),
    ),
    Mutant(
        "RS102-reflect-coin", "RS102",
        "the schedule sampler flips power-off-host's reflect coin on the global random stream",
        (
            ("src/repro/chaos/schedule.py", *_import("random", _FUTURE)),
            ("src/repro/chaos/schedule.py",
             "reflect=rng.random() < 0.7)", "reflect=random.random() < 0.7)"),
        ),
        flagged_by=("RS102",),
    ),
    Mutant(
        "RS102-seeded-global", "RS102",
        "random_regular seeds the process-global stream and draws from it, not from its own "
        "Random(seed)",
        (
            ("src/repro/topology/generators.py",
             "    rng = random.Random(seed)\n    order = list(range(n))\n",
             "    random.seed(seed)\n    rng = random\n    order = list(range(n))\n"),
        ),
        flagged_by=("RS102",),
    ),
    Mutant(
        "RS103-uuid-msg-id", "RS103",
        "control messages take their msg_id from uuid4 instead of the counter",
        (
            ("src/repro/sim/engine.py", *_import("uuid", _FUTURE)),
            ("src/repro/sim/engine.py",
             "        self.msg_ids += 1\n        return self.msg_ids\n",
             "        return uuid.uuid4().int >> 96\n"),
        ),
        flagged_by=("RS103",),
    ),
    Mutant(
        "RS103-urandom-nonce", "RS103",
        "the connectivity probe's nonce is drawn from os.urandom instead of counting up",
        (
            ("src/repro/core/monitor.py", *_import("os", _FUTURE)),
            ("src/repro/core/monitor.py",
             "            mon.nonce += 1\n",
             "            mon.nonce = int.from_bytes(os.urandom(4), \"big\")\n"),
        ),
        flagged_by=("RS103",),
    ),
    Mutant(
        "RS104-merged-log-order", "RS104",
        "the merged trace log breaks local-time ties by hash(component) instead of the name",
        (
            ("src/repro/sim/trace.py",
             "entries.sort(key=lambda e: (e.local_time, e.component))",
             "entries.sort(key=lambda e: (e.local_time, hash(e.component)))"),
        ),
        flagged_by=("RS104",),
    ),
    Mutant(
        "RS104-event-tiebreak", "RS104",
        "a schedule orders same-instant fault events by hash(kind) instead of the kind",
        (
            ("src/repro/chaos/schedule.py",
             "key=lambda e: (e.at_ns, e.kind))",
             "key=lambda e: (e.at_ns, hash(e.kind)))"),
        ),
        flagged_by=("RS104",),
    ),
    Mutant(
        "RS105-heal-order", "RS105",
        "the schedule sampler picks which noisy link to heal from the bare set",
        (
            ("src/repro/chaos/schedule.py",
             "        for pair in sorted(noisy):\n"
             "            tail += 50 * MS\n",
             "        for pair in noisy:\n"
             "            tail += rng.choice((50, 60)) * MS\n"),
        ),
        flagged_by=("RS105",),
    ),
    Mutant(
        "RS201-log-to-file", "RS201",
        "Autopilot.log also appends every line to a file",
        (
            ("src/repro/core/autopilot.py",
             "        self.trace.log(self.sim.now, event, detail)\n",
             "        self.trace.log(self.sim.now, event, detail)\n"
             "        with open(\"autopilot.log\", \"a\") as fh:\n"
             "            fh.write(f\"{self.sim.now} {event} {detail}\\n\")\n"),
        ),
        flagged_by=("RS201",),
    ),
    Mutant(
        "RS202-log-print", "RS202",
        "Autopilot.log also prints every line",
        (
            ("src/repro/core/autopilot.py",
             "        self.trace.log(self.sim.now, event, detail)\n",
             "        self.trace.log(self.sim.now, event, detail)\n"
             "        print(self.sim.now, event, detail)\n"),
        ),
        flagged_by=("RS202",),
    ),
    Mutant(
        "RS202-discard-stderr", "RS202",
        "the switch prints each table discard to stderr",
        (
            ("src/repro/net/switch.py", *_import("sys", _FUTURE)),
            ("src/repro/net/switch.py",
             "            self._drop(\"table-discard\", in_port)\n",
             "            self._drop(\"table-discard\", in_port)\n"
             "            print(f\"{self.name}: no route to {packet.dest_short}\", "
             "file=sys.stderr)\n"),
        ),
        flagged_by=("RS202",),
    ),
    Mutant(
        "RS203-condemn-peer", "RS203",
        "s.dead sets the far link unit's IdhySeen bit directly, not waiting for the directive",
        (
            ("src/repro/core/monitor.py",
             "        self.ap.switch.isolate_port(port)\n",
             "        self.ap.switch.isolate_port(port)\n"
             "        if unit.link is not None:\n"
             "            self._condemn(unit.link.other(unit))\n"
             "\n"
             "    def _condemn(self, peer) -> None:\n"
             "        peer._events |= IDHY_SEEN\n"),
        ),
        flagged_by=("RS203",),
    ),
    Mutant(
        "RS203-panic-unlatch", "RS203",
        "send_panic also writes START into the far link unit's flow-control latch",
        (
            ("src/repro/net/linkunit.py",
             "            self.fc_sender.pulse(Directive.PANIC)\n",
             "            self.fc_sender.pulse(Directive.PANIC)\n"
             "        if self.link is not None:\n"
             "            self._unlatch(self.link.other(self))\n"
             "\n"
             "    def _unlatch(self, unit: \"LinkUnit\") -> None:\n"
             "        unit.fc_receiver.last = Directive.START\n"),
        ),
        flagged_by=("RS203",),
    ),
    Mutant(
        "RS203-panic-recompute", "RS203",
        "send_panic also makes the far link unit's FIFO re-evaluate its rates, through its attribute",
        (
            ("src/repro/net/linkunit.py",
             "            self.fc_sender.pulse(Directive.PANIC)\n",
             "            self.fc_sender.pulse(Directive.PANIC)\n"
             "        if self.link is not None and isinstance(self.link.other(self), LinkUnit):\n"
             "            self._nudge(self.link.other(self))\n"
             "\n"
             "    def _nudge(self, peer: \"LinkUnit\") -> None:\n"
             "        peer.fifo.recompute()\n"),
        ),
        flagged_by=("RS203",),
    ),
    Mutant(
        "RS303-chained-recorder", "RS303",
        "the retx-arm hook calls sim.recorder.record(...) unguarded",
        (
            ("src/repro/core/reconfig.py",
             "        rec = self.ap.sim.recorder\n"
             "        if rec is not None:\n"
             "            rec.record(\n"
             "                self.ap.sim.now,\n"
             "                self.ap.switch.name,\n"
             "                CAT_TIMER,\n"
             "                \"retx-arm\",\n",
             "        if True:\n"
             "            self.ap.sim.recorder.record(\n"
             "                self.ap.sim.now,\n"
             "                self.ap.switch.name,\n"
             "                CAT_TIMER,\n"
             "                \"retx-arm\",\n"),
        ),
        flagged_by=("RS303",),
    ),
    Mutant(
        "RS303-guarded-chain", "RS303",
        "the table-clear hook tests sim.recorder, then loads it again to call record(...)",
        (
            ("src/repro/net/switch.py",
             "        rec = self.sim.recorder\n"
             "        if rec is not None:\n"
             "            rec.record(\n"
             "                self.sim.now, self.name, CAT_TABLE, \"table-clear\", "
             "reset=reset_on_load\n",
             "        if self.sim.recorder is not None:\n"
             "            self.sim.recorder.record(\n"
             "                self.sim.now, self.name, CAT_TABLE, \"table-clear\", "
             "reset=reset_on_load\n"),
        ),
        flagged_by=("RS303",),
    ),
    Mutant(
        "RS304-computed-series", "RS304",
        "the traffic engine registers a sampler collector under a computed series name",
        (
            ("src/repro/traffic/engine.py",
             "sampler.add_collector(\"traffic_unrouted_flows\",",
             "sampler.add_collector(\"traffic_\" + \"unrouted_flows\","),
        ),
        flagged_by=("RS304",),
    ),
    Mutant(
        "RS305-chained-inband", "RS305",
        "the table-discard stamp calls sim.inband.record_drop(...) unguarded",
        (
            ("src/repro/net/switch.py",
             "            ib = self.sim.inband\n"
             "            if ib is not None:\n"
             "                ib.record_drop(packet, self.name, \"table-discard\")\n",
             "            self.sim.inband.record_drop(packet, self.name, \"table-discard\")\n"),
        ),
        flagged_by=("RS305",),
    ),
    Mutant(
        "RS305-guarded-chain", "RS305",
        "the host's delivery stamp tests sim.inband, then loads it again to call "
        "record_delivery(...)",
        (
            ("src/repro/host/controller.py",
             "        ib = self.sim.inband\n"
             "        if ib is not None:\n"
             "            ib.record_delivery(packet)\n",
             "        if self.sim.inband is not None:\n"
             "            self.sim.inband.record_delivery(packet)\n"),
        ),
        flagged_by=("RS305",),
    ),
    Mutant(
        "RS306-unguarded-control", "RS306",
        "the control-send hook drops its None test",
        (
            ("src/repro/core/autopilot.py",
             "        acct = self.sim.control\n"
             "        if acct is not None:\n"
             "            acct.record_send(\n",
             "        acct = self.sim.control\n"
             "        if True:\n"
             "            acct.record_send(\n"),
        ),
        flagged_by=("RS306",),
    ),
    Mutant(
        "RS306-guarded-chain", "RS306",
        "the retransmit count tests sim.control, then loads it again to call record_retx(...)",
        (
            ("src/repro/core/reconfig.py",
             "            acct = self.ap.sim.control\n"
             "            if acct is not None:\n"
             "                acct.record_retx(self.epoch, type(pending.message).__name__)\n",
             "            if self.ap.sim.control is not None:\n"
             "                self.ap.sim.control.record_retx(self.epoch, "
             "type(pending.message).__name__)\n"),
        ),
        flagged_by=("RS306",),
    ),
    Mutant(
        "RS401-default-cuts", "RS401",
        "drive_scenario defaults its cuts to a shared empty list",
        (
            ("src/repro/scenario.py",
             "    cuts: Sequence[Tuple[int, int]],\n    load_ns: int = 0,\n",
             "    cuts: Sequence[Tuple[int, int]] = [],\n    load_ns: int = 0,\n"),
        ),
        flagged_by=("RS401",),
    ),
    Mutant(
        "RS402-mutable-table", "RS402",
        "SAMPLER_TRANSITIONS loses its MappingProxyType wrapper (the finding the first scan made)",
        (
            ("src/repro/core/portstate.py",
             "SAMPLER_TRANSITIONS: Mapping[PortState, FrozenSet[PortState]] = MappingProxyType({\n",
             "SAMPLER_TRANSITIONS: Mapping[PortState, FrozenSet[PortState]] = dict({\n"),
        ),
        flagged_by=("RS402",),
    ),
]


# -- applying a mutant ---------------------------------------------------------------------


def mutated_files(mutant: Mutant, root: Path = REPO) -> Dict[str, Tuple[str, str]]:
    """``{file: (original text, mutated text)}`` for every file a mutant edits."""
    out: Dict[str, Tuple[str, str]] = {}
    for file, old, new in mutant.edits:
        if file not in out:
            out[file] = 2 * ((root / file).read_text(),)
        original, text = out[file]
        if text.count(old) != 1:
            raise ValueError(f"{mutant.id}: {file} has {text.count(old)} copies of {old!r}")
        out[file] = original, text.replace(old, new)
    return out


@functools.lru_cache(maxsize=None)
def _active_rules(source: str, path: str) -> Tuple[str, ...]:
    """One rule id per finding the discipline test would fail ``source`` for."""
    found = check(module_name(path), ast.parse(source))
    return tuple(rule for _, rule, _ in found if f"{rule} {path}" not in ALLOWED)


def static_verdict(mutant: Mutant) -> Tuple[str, ...]:
    """The rules that fire on the mutated files and not on the real ones,
    ``ALLOWED`` applied as the discipline test applies it."""
    new: Counter = Counter()
    for file, (original, mutated) in mutated_files(mutant).items():
        new.update(_active_rules(mutated, file))
        new.subtract(_active_rules(original, file))
    return tuple(sorted(rule for rule, count in new.items() if count > 0))


def run_static() -> int:
    failures = 0
    flagged_own = set()
    for mutant in MUTANTS:
        verdict = static_verdict(mutant)
        ok = verdict == mutant.flagged_by
        failures += not ok
        if mutant.rule in verdict:
            flagged_own.add(mutant.rule)
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.id:<26} flagged by {', '.join(verdict) or '-'}"
              + ("" if ok else f" (recorded: {', '.join(mutant.flagged_by) or '-'})"))
    for rule in RULES:
        if rule not in flagged_own:
            print(f"FAIL {rule} flags no mutant of its own")
            failures += 1
    print(f"mutation audit (static): {len(MUTANTS)} mutants, {failures} failure(s)")
    return 1 if failures else 0


# -- the dynamic columns -----------------------------------------------------------------


#: tier-1 takes under two minutes; a mutant that makes a check run this
#: long has hung it
CHECK_TIMEOUT_S = 600


def _run(tree: Path, *argv: str, **env: str) -> subprocess.CompletedProcess:
    environ = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    return subprocess.run([sys.executable, *argv], cwd=tree, env=environ,
                          capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)


#: the test that runs every rule over the tree
DISCIPLINE = "tests/test_discipline.py::test_the_tree_keeps_the_discipline"


def check_lint(tree: Path) -> str:
    """The discipline test on the mutated tree: the rules its failure names."""
    proc = _run(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", DISCIPLINE)
    if proc.returncode == 0:
        return "-"
    rules = sorted(set(re.findall(r":\d+ (RS\d{3}) ", proc.stdout)))
    return ", ".join(rules) or f"crashes: {proc.stdout.strip().splitlines()[-1]}"


def check_tier1(tree: Path) -> str:
    proc = _run(
        tree, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--ignore=tests/staticcheck", f"--deselect={DISCIPLINE}",
        "--deselect=tests/test_src_budget.py::test_src_line_count_stays_within_budget",
    )
    if proc.returncode == 0:
        return "passes"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"exit {proc.returncode}"


def check_identity(tree: Path) -> str:
    """``tests/identity.py`` under hash seeds 0 and 1: how many rows moved
    from the committed manifest, and whether the two seeds agree.  The
    rows are read from the manifest it prints, never from its stderr,
    which a mutant may write to."""
    committed = json.loads((tree / "tests/fixtures/identity.json").read_text())
    manifests = []
    for hashseed in ("0", "1"):
        proc = _run(tree, "tests/identity.py", PYTHONHASHSEED=hashseed)
        try:
            manifests.append(json.loads(proc.stdout))
        except ValueError:
            return "crashes"
    moved = {row for manifest in manifests for row in manifest.keys() | committed.keys()
             if manifest.get(row) != committed.get(row)}
    verdict = f"{len(moved)} of {len(committed)} moved" if moved else "equal"
    return verdict if manifests[0] == manifests[1] else f"{verdict}, seeds differ"


CHECKS = {"lint": check_lint, "tier1": check_tier1, "identity": check_identity}

#: .git stays: tier-1 lists the committed documents with git ls-files
_SCRATCH = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")


def run_dynamic(out: Path, only: Sequence[str], checks: Sequence[str]) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for mutant in MUTANTS:
        if only and mutant.id not in only:
            continue
        with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
            tree = Path(scratch) / "repo"
            shutil.copytree(REPO, tree, ignore=_SCRATCH)
            for file, (_, mutated) in mutated_files(mutant).items():
                (tree / file).write_text(mutated)
            row = {"id": mutant.id, "rule": mutant.rule, "what": mutant.what}
            for name in checks:
                try:
                    row[name] = CHECKS[name](tree)
                except subprocess.TimeoutExpired:
                    row[name] = "hangs"
                print(f"{mutant.id}: {name}: {row[name]}", flush=True)
        path = out / f"{mutant.id}.json"
        if path.exists():  # a partial re-run keeps the other columns
            row = {**json.loads(path.read_text()), **row}
        path.write_text(json.dumps(row, indent=1) + "\n")
    return 0


def render_table(out: Path) -> int:
    print("| Mutant | Breaks | Edit | Rules | Tier-1 (without the rules) "
          "| Identity manifest |")
    print("| --- | --- | --- | --- | --- | --- |")
    for mutant in MUTANTS:
        path = out / f"{mutant.id}.json"
        row = json.loads(path.read_text()) if path.exists() else {}
        cells = [mutant.id, mutant.rule, mutant.what,
                 *(row.get(name, "not run") for name in CHECKS)]
        print("| " + " | ".join(cells) + " |")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--static", action="store_true",
                      help="in-memory: every mutant's static verdict is the recorded one")
    mode.add_argument("--dynamic", metavar="OUT", type=Path,
                      help="apply each mutant to a scratch copy and run the checks")
    mode.add_argument("--table", metavar="OUT", type=Path,
                      help="render OUT/*.json as the Markdown table")
    parser.add_argument("--only", nargs="+", default=(), metavar="ID")
    parser.add_argument("--checks", nargs="+", default=tuple(CHECKS), choices=tuple(CHECKS))
    args = parser.parse_args()
    if args.static:
        return run_static()
    if args.dynamic:
        return run_dynamic(args.dynamic, args.only, args.checks)
    return render_table(args.table)


if __name__ == "__main__":
    sys.exit(main())
