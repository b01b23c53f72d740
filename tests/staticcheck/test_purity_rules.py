"""RS2xx fixtures: handler purity (I/O, print, cross-component writes)."""

from tests.staticcheck import case

# -- RS201: blocking I/O --------------------------------------------------------------

test_rs201_open_in_hot_module_flagged = case(
    "def dump(self, path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n", ["RS201"])
test_rs201_subprocess_socket_sleep_flagged = case((
    "import subprocess\n\ndef f():\n    subprocess.run(['ls'])\n",
    "import socket\n\ndef f():\n    return socket.socket()\n",
    "import time\n\ndef f():\n    time.sleep(1)\n",
    "def f(path):\n    return path.read_text()\n",
), ["RS201"])
test_rs201_open_fine_in_analysis_and_main_modules = case(
    "def dump(path):\n    return open(path).read()\n",
    module=("repro.analysis.logs", "repro.chaos.__main__", "benchtool"))

# -- RS202: print on the hot path -----------------------------------------------------

test_rs202_print_in_hot_module_flagged = case(
    "def on_packet(self, pkt):\n    print('got', pkt)\n", ["RS202"], says="stdout")
test_rs202_print_fine_in_cli_and_analysis = case(
    "def report(x):\n    print(x)\n", module=("repro.obs.__main__", "repro.analysis.doctor"))

# -- RS203: cross-component writes ----------------------------------------------------

test_rs203_write_to_peer_param_flagged = case(
    "class Switch:\n    def merge(self, other):\n        other.epoch = self.epoch\n",
    ["RS203"], module="repro.core.fixture", says="other")
test_rs203_write_to_component_typed_param_flagged = case(
    "class Host:\n    def poke(self, sw: 'Switch'):\n        sw.table = None\n",
    ["RS203"], module="repro.core.fixture")
test_rs203_clean_self_writes_and_local_records = case(
    "class Switch:\n    def on_tree_position(self, port, msg):\n"
    "        peer = self.peers[port]\n        peer.uid = msg.sender_uid\n"
    "        self.epoch += 1\n", module="repro.core.fixture")
test_rs203_constructor_wiring_is_allowed = case(
    "class Link:\n    def __init__(self, other):\n        other.link = self\n")
test_rs203_not_applied_outside_component_packages = case(
    "class Campaign:\n    def brief(self, other):\n        other.note = 'x'\n",
    module="repro.chaos.fixture")
