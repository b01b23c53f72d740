"""RS51x port-FSM conformance: extraction, table totality, dispatches."""

import sys

import pytest

from repro.staticcheck import check_sources
from repro.staticcheck.dataflow import PortFsmPass, Project
from repro.staticcheck.dataflow.fsm import extract_fsm

PORTSTATE = (
    "class PortState:\n"
    "    DEAD = 0\n"
    "    CHECKING = 1\n"
    "    HOST = 2\n"
    "    SWITCH_GOOD = 3\n"
    "\n"
    "T_TRANSITIONS = {\n"
    "    PortState.DEAD: (PortState.CHECKING,),\n"
    "    PortState.CHECKING: (PortState.HOST,),\n"
    "    PortState.HOST: (PortState.DEAD,),\n"
    "    PortState.SWITCH_GOOD: (PortState.DEAD,),\n"
    "}\n"
)


def fsm_findings(handler_source, portstate=PORTSTATE):
    sources = {"repro.core.portstate": portstate}
    if handler_source is not None:
        sources["repro.net.handler"] = handler_source
    return check_sources(sources, passes=[PortFsmPass()])


def test_extraction_artifact():
    assert fsm_findings(None) == []
    fsm = extract_fsm(Project.from_sources({"repro.core.portstate": PORTSTATE}))
    assert fsm.module == "repro.core.portstate"
    assert fsm.members == ["DEAD", "CHECKING", "HOST", "SWITCH_GOOD"]
    assert {name: sources for name, (_, sources) in fsm.tables.items()} == {
        "T_TRANSITIONS": ["DEAD", "CHECKING", "HOST", "SWITCH_GOOD"],
    }


def test_real_portstate_module_extracts_annotated_tables():
    """The repo's own module uses AnnAssign + MappingProxyType wrapping."""
    from pathlib import Path

    source = Path("src/repro/core/portstate.py").read_text(encoding="utf-8")
    sources = {"repro.core.portstate": source}
    assert check_sources(sources, passes=[PortFsmPass()]) == []
    fsm = extract_fsm(Project.from_sources(sources))
    assert set(fsm.tables) == {"SAMPLER_TRANSITIONS", "MONITOR_TRANSITIONS"}
    assert sorted(fsm.tables["SAMPLER_TRANSITIONS"][1]) == sorted(fsm.members)


def test_rs510_silent_fall_through():
    findings = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "class H:\n"
        "    def on_state(self, st):\n"
        "        if st is PortState.DEAD:\n"
        "            return 1\n"
        "        elif st is PortState.CHECKING:\n"
        "            return 2\n"
        "        elif st is PortState.HOST:\n"
        "            return 3\n"
    )
    assert [f.rule for f in findings] == ["RS510"]
    assert "PortState.SWITCH_GOOD" in findings[0].message


def test_rs510_quiet_when_all_states_handled_or_else_present():
    full = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def on_state(st):\n"
        "    if st is PortState.DEAD:\n"
        "        return 1\n"
        "    elif st is PortState.CHECKING:\n"
        "        return 2\n"
        "    elif st in (PortState.HOST, PortState.SWITCH_GOOD):\n"
        "        return 3\n"
    )
    assert full == []

    with_else = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def on_state(st):\n"
        "    if st is PortState.DEAD:\n"
        "        return 1\n"
        "    elif st is PortState.CHECKING:\n"
        "        return 2\n"
        "    elif st is PortState.HOST:\n"
        "        return 3\n"
        "    else:\n"
        "        raise ValueError(st)\n"
    )
    assert with_else == []

    not_last = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def on_state(st):\n"
        "    if st is PortState.DEAD:\n"
        "        return 1\n"
        "    elif st is PortState.CHECKING:\n"
        "        return 2\n"
        "    elif st is PortState.HOST:\n"
        "        return 3\n"
        "    return 0\n"  # follow-on statement: the fall-through is handled
    )
    assert not_last == []


def test_single_state_guards_are_not_dispatches():
    findings = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def guard(st):\n"
        "    if st is PortState.DEAD:\n"
        "        return None\n"
    )
    assert findings == []


def test_rs511_missing_source_state():
    incomplete = (
        "class PortState:\n"
        "    DEAD = 0\n"
        "    CHECKING = 1\n"
        "    HOST = 2\n"
        "\n"
        "T_TRANSITIONS = {\n"
        "    PortState.DEAD: (PortState.CHECKING,),\n"
        "    PortState.CHECKING: (PortState.HOST,),\n"
        "}\n"
    )
    findings = fsm_findings(None, portstate=incomplete)
    assert [f.rule for f in findings] == ["RS511"]
    assert "HOST" in findings[0].message


def test_rs511_unknown_member():
    typo = (
        "class PortState:\n"
        "    DEAD = 0\n"
        "    CHECKING = 1\n"
        "    HOST = 2\n"
        "\n"
        "T_TRANSITIONS = {\n"
        "    PortState.DEAD: (PortState.CHEKCING,),\n"
        "    PortState.CHECKING: (PortState.HOST,),\n"
        "    PortState.HOST: (PortState.DEAD,),\n"
        "}\n"
    )
    findings = fsm_findings(None, portstate=typo)
    assert [f.rule for f in findings] == ["RS511"]
    assert "CHEKCING" in findings[0].message


@pytest.mark.skipif(sys.version_info < (3, 10), reason="match statements")
def test_rs510_match_without_wildcard():
    findings = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def on_state(st):\n"
        "    match st:\n"
        "        case PortState.DEAD:\n"
        "            return 1\n"
        "        case PortState.CHECKING:\n"
        "            return 2\n"
        "        case PortState.HOST:\n"
        "            return 3\n"
    )
    assert [f.rule for f in findings] == ["RS510"]

    covered = fsm_findings(
        "from repro.core.portstate import PortState\n"
        "\n"
        "def on_state(st):\n"
        "    match st:\n"
        "        case PortState.DEAD:\n"
        "            return 1\n"
        "        case _:\n"
        "            return 0\n"
    )
    assert covered == []


def test_no_portstate_module_no_findings():
    sources = {"repro.other": "def f():\n    return 1\n"}
    assert check_sources(sources, passes=[PortFsmPass()]) == []
    assert extract_fsm(Project.from_sources(sources)) is None
