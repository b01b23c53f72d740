"""RS3xx fixtures: observability discipline."""

from tests.staticcheck import check, rules_of


# -- RS303: flight-recorder disabled pattern ------------------------------------------


def test_rs303_chained_recorder_call_flagged():
    findings = check(
        "def on_packet(self, pkt):\n"
        "    self.sim.recorder.record(0, 'sw', 'msg', 'recv')\n"
    )
    assert rules_of(findings) == ["RS303"]


def test_rs303_unguarded_local_flagged():
    findings = check(
        "def on_packet(self, pkt):\n"
        "    rec = self.sim.recorder\n"
        "    rec.record(0, 'sw', 'msg', 'recv')\n"
    )
    assert rules_of(findings) == ["RS303"]


def test_rs303_clean_guarded_local():
    findings = check(
        "def on_packet(self, pkt):\n"
        "    rec = self.sim.recorder\n"
        "    if rec is not None:\n"
        "        rec.record(0, 'sw', 'msg', 'recv')\n"
    )
    assert findings == []


def test_rs303_clean_guard_with_and_chain_inside_loop():
    findings = check(
        "def flush(self, pkts):\n"
        "    for pkt in pkts:\n"
        "        rec = self.sim.recorder\n"
        "        if rec is not None and self.name is not None:\n"
        "            rec.record(0, self.name, 'msg', 'send')\n"
    )
    assert findings == []


def test_rs303_clean_early_return_guard():
    findings = check(
        "def mark(self):\n"
        "    rec = self.sim.recorder\n"
        "    if rec is None:\n"
        "        return\n"
        "    rec.record(0, 'sw', 'epoch', 'mark')\n"
    )
    assert findings == []


def test_rs303_implementation_module_exempt():
    findings = check(
        "def replay(self):\n"
        "    self.recorder.record(0, 'x', 'y', 'z')\n",
        module="repro.obs.flight",
    )
    assert findings == []


# -- RS304: sampler bounded-ring discipline -------------------------------------------


def test_rs304_computed_collector_name_flagged():
    findings = check(
        "def install(self, name):\n"
        "    self.sampler.add_collector('fifo_' + name, lambda: 0.0)\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_fstring_collector_name_flagged():
    findings = check(
        "def install(self, sw):\n"
        "    self.sim.sampler.add_collector(f'epoch_{sw}', lambda: 0.0)\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_appending_collector_callback_flagged():
    findings = check(
        "def install(self, log):\n"
        "    self.sampler.add_collector('epoch', lambda: log.append(1))\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_clean_literal_name_and_pure_callback():
    findings = check(
        "def install(self, sw):\n"
        "    self.sampler.add_collector(\n"
        "        'epoch', lambda: float(self.engines[sw].epoch), switch=sw)\n"
    )
    assert findings == []


def test_rs304_unrelated_receivers_ignored():
    findings = check(
        "def f(gatherer, name):\n"
        "    gatherer.add_collector(name, lambda: 0)\n"
    )
    assert findings == []


def test_rs304_implementation_module_exempt():
    findings = check(
        "def _ring(self, name, labels):\n"
        "    self.sampler.add_collector(name, lambda: self.rows.append(1))\n",
        module="repro.obs.timeseries",
    )
    assert findings == []


# -- RS305: in-band stamp disabled pattern --------------------------------------------


def test_rs305_chained_inband_call_flagged():
    findings = check(
        "def forward(self, pkt, port):\n"
        "    self.sim.inband.record_hop(pkt, self.name, port, (2,), 0.0)\n"
    )
    assert rules_of(findings) == ["RS305"]


def test_rs305_unguarded_local_flagged():
    findings = check(
        "def forward(self, pkt, port):\n"
        "    ib = self.sim.inband\n"
        "    ib.record_hop(pkt, self.name, port, (2,), 0.0)\n"
    )
    assert rules_of(findings) == ["RS305"]


def test_rs305_clean_guarded_local():
    findings = check(
        "def forward(self, pkt, port):\n"
        "    ib = self.sim.inband\n"
        "    if ib is not None:\n"
        "        ib.record_hop(pkt, self.name, port, (2,), 0.0)\n"
    )
    assert findings == []


def test_rs305_clean_early_return_guard():
    findings = check(
        "def deliver(self, pkt):\n"
        "    ib = self.sim.inband\n"
        "    if ib is None:\n"
        "        return\n"
        "    ib.record_delivery(pkt, self.name)\n"
    )
    assert findings == []


def test_rs305_all_stamp_methods_audited():
    for method in ("record_hop", "record_drop", "record_queue_drop",
                   "record_delivery"):
        findings = check(
            "def site(self, pkt):\n"
            f"    self.sim.inband.{method}(pkt)\n"
        )
        assert rules_of(findings) == ["RS305"], method


def test_rs305_unrelated_methods_ignored():
    # non-stamp methods (document(), quantiles()) are tool-time, not hot path
    findings = check(
        "def export(self):\n"
        "    return self.sim.inband.document()\n"
    )
    assert findings == []


def test_rs305_implementation_module_exempt():
    findings = check(
        "def record_hop(self, pkt):\n"
        "    self.sim.inband.record_hop(pkt)\n",
        module="repro.obs.inband",
    )
    assert findings == []


# -- RS306: control-accounting disabled pattern ---------------------------------------


def test_rs306_chained_control_call_flagged():
    findings = check(
        "def send(self, msg):\n"
        "    self.sim.control.record_send(0, 'AckMsg', 'steady', 24)\n"
    )
    assert rules_of(findings) == ["RS306"]


def test_rs306_unguarded_local_flagged():
    findings = check(
        "def send(self, msg):\n"
        "    acct = self.sim.control\n"
        "    acct.record_send(0, 'AckMsg', 'steady', 24)\n"
    )
    assert rules_of(findings) == ["RS306"]


def test_rs306_clean_guarded_local():
    findings = check(
        "def send(self, msg):\n"
        "    acct = self.sim.control\n"
        "    if acct is not None:\n"
        "        acct.record_send(0, 'AckMsg', 'steady', 24)\n"
    )
    assert findings == []


def test_rs306_clean_early_return_guard():
    findings = check(
        "def retransmit(self, pending):\n"
        "    acct = self.sim.control\n"
        "    if acct is None:\n"
        "        return\n"
        "    acct.record_retx(0, 'ConfigMsg')\n"
    )
    assert findings == []


def test_rs306_all_accounting_methods_audited():
    for method, args in (
        ("record_send", "0, 'AckMsg', 'steady', 24"),
        ("record_retx", "0, 'AckMsg'"),
        ("record_srp", "'ping', 'hop'"),
    ):
        findings = check(
            "def site(self):\n"
            f"    self.sim.control.{method}({args})\n"
        )
        assert rules_of(findings) == ["RS306"], method


def test_rs306_unrelated_methods_ignored():
    # summary()/by_type() are tool-time queries, not hot-path hooks
    findings = check(
        "def report(self):\n"
        "    return self.sim.control.summary()\n"
    )
    assert findings == []


def test_rs306_implementation_module_exempt():
    findings = check(
        "def record_send(self, epoch, msg, phase, size):\n"
        "    self.sim.control.record_send(epoch, msg, phase, size)\n",
        module="repro.obs.control",
    )
    assert findings == []
