"""RS2xx fixtures: handler purity (I/O, print, cross-component writes)."""

from tests.staticcheck import check, rules_of


# -- RS201: blocking I/O --------------------------------------------------------------


def test_rs201_open_in_hot_module_flagged():
    findings = check(
        "def dump(self, path):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
    )
    assert rules_of(findings) == ["RS201"]


def test_rs201_subprocess_socket_sleep_flagged():
    for snippet in (
        "import subprocess\n\ndef f():\n    subprocess.run(['ls'])\n",
        "import socket\n\ndef f():\n    return socket.socket()\n",
        "import time\n\ndef f():\n    time.sleep(1)\n",
        "def f(path):\n    return path.read_text()\n",
    ):
        assert "RS201" in rules_of(check(snippet)), snippet


def test_rs201_open_fine_in_analysis_and_main_modules():
    snippet = "def dump(path):\n    return open(path).read()\n"
    analysis = check(
        snippet, module="repro.analysis.logs")
    cli = check(
        snippet, module="repro.chaos.__main__")
    outside = check(snippet, module="benchtool")
    assert analysis == []
    assert cli == []
    assert outside == []


# -- RS202: print on the hot path -----------------------------------------------------


def test_rs202_print_in_hot_module_flagged():
    findings = check(
        "def on_packet(self, pkt):\n"
        "    print('got', pkt)\n"
    )
    assert rules_of(findings) == ["RS202"]
    assert "stdout" in findings[0][2]


def test_rs202_print_fine_in_cli_and_analysis():
    snippet = "def report(x):\n    print(x)\n"
    assert check(
        snippet, module="repro.obs.__main__") == []
    assert check(
        snippet, module="repro.analysis.doctor") == []


# -- RS203: cross-component writes ----------------------------------------------------


def test_rs203_write_to_peer_param_flagged():
    findings = check(
        "class Switch:\n"
        "    def merge(self, other):\n"
        "        other.epoch = self.epoch\n",
        module="repro.core.fixture",
    )
    assert rules_of(findings) == ["RS203"]
    assert "other" in findings[0][2]


def test_rs203_write_to_component_typed_param_flagged():
    findings = check(
        "class Host:\n"
        "    def poke(self, sw: 'Switch'):\n"
        "        sw.table = None\n",
        module="repro.core.fixture",
    )
    assert rules_of(findings) == ["RS203"]


def test_rs203_clean_self_writes_and_local_records():
    findings = check(
        "class Switch:\n"
        "    def on_tree_position(self, port, msg):\n"
        "        peer = self.peers[port]\n"
        "        peer.uid = msg.sender_uid\n"
        "        self.epoch += 1\n",
        module="repro.core.fixture",
    )
    assert findings == []


def test_rs203_constructor_wiring_is_allowed():
    findings = check(
        "class Link:\n"
        "    def __init__(self, other):\n"
        "        other.link = self\n",
        module="repro.net.fixture",
    )
    assert findings == []


def test_rs203_not_applied_outside_component_packages():
    findings = check(
        "class Campaign:\n"
        "    def brief(self, other):\n"
        "        other.note = 'x'\n",
        module="repro.chaos.fixture",
    )
    assert findings == []
