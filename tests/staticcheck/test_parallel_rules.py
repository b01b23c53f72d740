"""RS60x: module-level mutable state written from campaigns and handlers."""

from pathlib import Path

from repro.staticcheck import check_sources, run_suite
from repro.staticcheck.dataflow import ParallelReadinessPass

REPO_ROOT = Path(__file__).resolve().parents[2]


def analyze(sources):
    return check_sources(sources, passes=[ParallelReadinessPass()])


def test_rs601_write_reachable_from_chaos_entry():
    findings = analyze({
        "repro.obs.registry": (
            "CACHE = {}\n"
            "\n"
            "def remember(key, value):\n"
            "    CACHE[key] = value\n"
        ),
        "repro.chaos.campaign": (
            "from repro.obs.registry import remember\n"
            "\n"
            "def run_campaign():\n"
            "    remember('a', 1)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS601"]
    assert "repro.obs.registry.CACHE" in findings[0].message
    assert "written by repro.obs.registry.remember" in findings[0].message
    assert "entry point repro.chaos.campaign.run_campaign" in findings[0].message


def test_rs602_write_reachable_from_event_handler():
    findings = analyze({
        "repro.net.node": (
            "SEEN = []\n"
            "\n"
            "class Node:\n"
            "    def on_packet(self, pkt):\n"
            "        SEEN.append(pkt)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS602"]
    assert "SEEN" in findings[0].message


def test_read_only_state_is_not_flagged():
    findings = analyze({
        "repro.core.tables": "LIMITS = {'hops': 5}\n",
        "repro.chaos.use": (
            "from repro.core import tables\n"
            "\n"
            "def campaign():\n"
            "    return tables.LIMITS\n"
        ),
    })
    assert findings == []


def test_mutator_methods_count_as_writes():
    findings = analyze({
        "repro.chaos.acc": (
            "EVENTS = []\n"
            "\n"
            "def record(e):\n"
            "    EVENTS.append(e)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS601"]


def test_local_shadowing_is_not_an_access():
    findings = analyze({
        "repro.chaos.shadow": (
            "CACHE = {}\n"
            "\n"
            "def campaign():\n"
            "    CACHE = {}\n"  # local binding shadows the module global
            "    CACHE['x'] = 1\n"
            "    return CACHE\n"
        ),
    })
    assert findings == []


def test_write_through_transitive_call_chain():
    findings = analyze({
        "repro.store": (
            "STATE = {}\n"
            "\n"
            "def put(k, v):\n"
            "    STATE[k] = v\n"
        ),
        "repro.mid": (
            "from repro.store import put\n"
            "\n"
            "def via(k, v):\n"
            "    put(k, v)\n"
        ),
        "repro.chaos.entry": (
            "from repro.mid import via\n"
            "\n"
            "def campaign():\n"
            "    via('a', 1)\n"
        ),
    })
    assert [f.rule for f in findings] == ["RS601"]


def test_rs6_findings_on_the_real_tree_are_empty_and_stable():
    """The only whole-program check that two Networks share nothing."""
    runs = [
        run_suite([REPO_ROOT / "src"], passes=[ParallelReadinessPass()]).findings
        for _ in range(2)
    ]
    assert runs[0] == runs[1] == []
