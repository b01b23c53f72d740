"""RS50x interprocedural taint: flows the per-file RS1xx rules cannot see."""

from repro.staticcheck import check_sources
from repro.staticcheck.dataflow import TaintPass
from repro.staticcheck.determinism import DeterminismPass
from repro.staticcheck.hygiene import HygienePass
from repro.staticcheck.obsrules import ObsDisciplinePass
from repro.staticcheck.purity import PurityPass


def taint_findings(sources):
    return check_sources(sources, passes=[TaintPass()])


def perfile_findings(sources):
    """The RS1xx-RS4xx per-file rules over the same fixture modules."""
    return check_sources(sources, passes=[
        DeterminismPass(), PurityPass(), ObsDisciplinePass(), HygienePass()])


#: the acceptance fixture: a wall-clock read laundered through a
#: module-level callable alias in one module, scheduled in another.
#: RS101 keys on canonical dotted call names, so the bare ``_clock()``
#: is invisible to it -- only the whole-program pass can connect
#: ``time.monotonic`` to ``sim.after``.
LAUNDERED_CLOCK = {
    "repro.util.clockwrap": (
        "import time as _time\n"
        "\n"
        "_clock = _time.monotonic\n"
        "\n"
        "def now():\n"
        "    return _clock()\n"
    ),
    "repro.net.sched": (
        "from repro.util.clockwrap import now\n"
        "\n"
        "class Sched:\n"
        "    def fire(self, sim):\n"
        "        delay = now()\n"
        "        sim.after(delay, self.fire)\n"
    ),
}


def test_rs501_catches_flow_that_rs1xx_misses():
    """The whole point of the dataflow engine, asserted both ways."""
    assert perfile_findings(LAUNDERED_CLOCK) == []

    findings = taint_findings(LAUNDERED_CLOCK)
    assert [f.rule for f in findings] == ["RS501"]
    finding = findings[0]
    assert finding.path == "src/repro/net/sched.py"
    assert "time.monotonic" in finding.message
    assert "repro.util.clockwrap.now" in finding.message
    assert ".after()" in finding.message


def test_rs501_through_return_chain():
    findings = taint_findings({
        "repro.a": (
            "import time\n"
            "\n"
            "def raw():\n"
            "    return time.time()\n"
            "\n"
            "def indirection():\n"
            "    return raw() + 1\n"
        ),
        "repro.b": (
            "from repro.a import indirection\n"
            "\n"
            "def schedule(sim):\n"
            "    sim.at(indirection(), None)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS501"]
    assert "repro.a.raw" in findings[0].message


def test_rs501_through_argument_and_attribute_store():
    findings = taint_findings({
        "repro.comp": (
            "import time\n"
            "\n"
            "class Comp:\n"
            "    def __init__(self):\n"
            "        self.t0 = time.monotonic()\n"
            "\n"
            "    def arm(self, sim):\n"
            "        sim.at(self.t0, None)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS501"]
    assert "Comp.__init__" in findings[0].message


def test_rs502_nondeterministic_seed():
    findings = taint_findings({
        "repro.seeds": (
            "import time\n"
            "\n"
            "def entropy():\n"
            "    return int(time.time())\n"
        ),
        "repro.campaign": (
            "import random\n"
            "\n"
            "from repro.seeds import entropy\n"
            "\n"
            "def start():\n"
            "    random.seed(entropy())\n"
            "\n"
            "def fork(rng):\n"
            "    rng.seed(entropy())\n"
            "\n"
            "def spawn(make):\n"
            "    return make(seed=entropy())\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS502", "RS502", "RS502"]


def test_rs503_hash_order_into_schedule():
    findings = taint_findings({
        "repro.keys": (
            "def key_of(obj):\n"
            "    return id(obj)\n"
        ),
        "repro.sched": (
            "from repro.keys import key_of\n"
            "\n"
            "def enqueue(sim, obj):\n"
            "    sim.after(key_of(obj), None)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS503"]
    assert "hash-order" in findings[0].message


def test_same_function_flows_are_left_to_rs1xx():
    """A source and sink in one function is RS101's finding, not RS501's."""
    sources = {
        "repro.direct": (
            "import time\n"
            "\n"
            "def fire(sim):\n"
            "    t = time.time()\n"
            "    sim.after(t, None)\n"
        ),
    }
    assert taint_findings(sources) == []
    assert "RS101" in {f.rule for f in perfile_findings(sources)}


def test_clean_flows_report_nothing():
    assert taint_findings({
        "repro.clean": (
            "def delay_of(cfg):\n"
            "    return cfg.timeout\n"
        ),
        "repro.user": (
            "from repro.clean import delay_of\n"
            "\n"
            "def fire(sim, cfg):\n"
            "    sim.after(delay_of(cfg), None)\n"
        ),
    }) == []


def test_findings_are_deterministic():
    a = taint_findings(LAUNDERED_CLOCK)
    b = taint_findings(LAUNDERED_CLOCK)
    assert [f.to_json() for f in a] == [f.to_json() for f in b]
