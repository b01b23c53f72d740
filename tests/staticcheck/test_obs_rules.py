"""RS3xx fixtures: observability discipline."""

from tests.staticcheck import case

# -- RS303: flight-recorder disabled pattern ------------------------------------------

test_rs303_chained_recorder_call_flagged = case(
    "def on_packet(self, pkt):\n    self.sim.recorder.record(0, 'sw', 'msg', 'recv')\n", ["RS303"])
test_rs303_unguarded_local_flagged = case(
    "def on_packet(self, pkt):\n    rec = self.sim.recorder\n"
    "    rec.record(0, 'sw', 'msg', 'recv')\n", ["RS303"])
test_rs303_clean_guarded_local = case(
    "def on_packet(self, pkt):\n    rec = self.sim.recorder\n    if rec is not None:\n"
    "        rec.record(0, 'sw', 'msg', 'recv')\n")
test_rs303_clean_guard_with_and_chain_inside_loop = case(
    "def flush(self, pkts):\n    for pkt in pkts:\n        rec = self.sim.recorder\n"
    "        if rec is not None and self.name is not None:\n"
    "            rec.record(0, self.name, 'msg', 'send')\n")
test_rs303_clean_early_return_guard = case(
    "def mark(self):\n    rec = self.sim.recorder\n    if rec is None:\n        return\n"
    "    rec.record(0, 'sw', 'epoch', 'mark')\n")
test_rs303_implementation_module_exempt = case(
    "def replay(self):\n    self.recorder.record(0, 'x', 'y', 'z')\n", module="repro.obs.flight")

# -- RS304: sampler bounded-ring discipline -------------------------------------------

test_rs304_computed_collector_name_flagged = case(
    "def install(self, name):\n    self.sampler.add_collector('fifo_' + name, lambda: 0.0)\n",
    ["RS304"])
test_rs304_fstring_collector_name_flagged = case(
    "def install(self, sw):\n    self.sim.sampler.add_collector(f'epoch_{sw}', lambda: 0.0)\n",
    ["RS304"])
test_rs304_appending_collector_callback_flagged = case(
    "def install(self, log):\n    self.sampler.add_collector('epoch', lambda: log.append(1))\n",
    ["RS304"])
test_rs304_clean_literal_name_and_pure_callback = case(
    "def install(self, sw):\n    self.sampler.add_collector(\n"
    "        'epoch', lambda: float(self.engines[sw].epoch), switch=sw)\n")
test_rs304_unrelated_receivers_ignored = case(
    "def f(gatherer, name):\n    gatherer.add_collector(name, lambda: 0)\n")
test_rs304_implementation_module_exempt = case(
    "def _ring(self, name, labels):\n"
    "    self.sampler.add_collector(name, lambda: self.rows.append(1))\n",
    module="repro.obs.timeseries")

# -- RS305: in-band stamp disabled pattern --------------------------------------------

test_rs305_chained_inband_call_flagged = case(
    "def forward(self, pkt, port):\n"
    "    self.sim.inband.record_hop(pkt, self.name, port, (2,), 0.0)\n", ["RS305"])
test_rs305_unguarded_local_flagged = case(
    "def forward(self, pkt, port):\n    ib = self.sim.inband\n"
    "    ib.record_hop(pkt, self.name, port, (2,), 0.0)\n", ["RS305"])
test_rs305_clean_guarded_local = case(
    "def forward(self, pkt, port):\n    ib = self.sim.inband\n    if ib is not None:\n"
    "        ib.record_hop(pkt, self.name, port, (2,), 0.0)\n")
test_rs305_clean_early_return_guard = case(
    "def deliver(self, pkt):\n    ib = self.sim.inband\n    if ib is None:\n        return\n"
    "    ib.record_delivery(pkt, self.name)\n")
test_rs305_all_stamp_methods_audited = case(tuple(
    f"def site(self, pkt):\n    self.sim.inband.{method}(pkt)\n"
    for method in ("record_hop", "record_drop", "record_queue_drop", "record_delivery")
), ["RS305"])
# non-stamp methods (document(), quantiles()) are tool-time, not hot path
test_rs305_unrelated_methods_ignored = case(
    "def export(self):\n    return self.sim.inband.document()\n")
test_rs305_implementation_module_exempt = case(
    "def record_hop(self, pkt):\n    self.sim.inband.record_hop(pkt)\n",
    module="repro.obs.inband")

# -- RS306: control-accounting disabled pattern ---------------------------------------

test_rs306_chained_control_call_flagged = case(
    "def send(self, msg):\n    self.sim.control.record_send(0, 'AckMsg', 'steady', 24)\n",
    ["RS306"])
test_rs306_unguarded_local_flagged = case(
    "def send(self, msg):\n    acct = self.sim.control\n"
    "    acct.record_send(0, 'AckMsg', 'steady', 24)\n", ["RS306"])
test_rs306_clean_guarded_local = case(
    "def send(self, msg):\n    acct = self.sim.control\n    if acct is not None:\n"
    "        acct.record_send(0, 'AckMsg', 'steady', 24)\n")
test_rs306_clean_early_return_guard = case(
    "def retransmit(self, pending):\n    acct = self.sim.control\n    if acct is None:\n"
    "        return\n    acct.record_retx(0, 'ConfigMsg')\n")
test_rs306_all_accounting_methods_audited = case((
    "def site(self):\n    self.sim.control.record_send(0, 'AckMsg', 'steady', 24)\n",
    "def site(self):\n    self.sim.control.record_retx(0, 'AckMsg')\n",
    "def site(self):\n    self.sim.control.record_srp('ping', 'hop')\n",
), ["RS306"])
# summary()/by_type() are tool-time queries, not hot-path hooks
test_rs306_unrelated_methods_ignored = case(
    "def report(self):\n    return self.sim.control.summary()\n")
test_rs306_implementation_module_exempt = case(
    "def record_send(self, epoch, msg, phase, size):\n"
    "    self.sim.control.record_send(epoch, msg, phase, size)\n",
    module="repro.obs.control")
