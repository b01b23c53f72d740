"""RS4xx fixtures: mutable-state hygiene."""

from tests.staticcheck import check, rules_of


# -- RS401: mutable default arguments -------------------------------------------------


def test_rs401_list_dict_set_defaults_flagged():
    for default in ("[]", "{}", "set()", "list()", "dict()", "defaultdict(list)"):
        findings = check(f"def f(x={default}):\n    return x\n")
        assert rules_of(findings) == ["RS401"], default


def test_rs401_kwonly_and_lambda_defaults_flagged():
    kwonly = check("def f(*, acc=[]):\n    return acc\n")
    lam = check("g = lambda acc=[]: acc\n")
    assert rules_of(kwonly) == ["RS401"]
    assert rules_of(lam) == ["RS401"]


def test_rs401_applies_outside_hot_packages_too():
    findings = check(
        "def f(x=[]):\n    return x\n",
        module="repro.analysis.fixture",
    )
    assert rules_of(findings) == ["RS401"]


def test_rs401_clean_none_default_and_field_factory():
    none_default = check(
        "def f(x=None):\n"
        "    return [] if x is None else x\n"
    )
    factory = check(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Spec:\n"
        "    cables: list = field(default_factory=list)\n"
    )
    assert none_default == []
    assert factory == []


# -- RS402: module-level mutable state ------------------------------------------------


def test_rs402_module_level_containers_flagged():
    for value in ("{}", "[]", "set()", "defaultdict(list)"):
        findings = check(f"CACHE = {value}\n")
        assert rules_of(findings) == ["RS402"], value


def test_rs402_annotated_module_global_flagged():
    findings = check("REGISTRY: dict = {}\n")
    assert rules_of(findings) == ["RS402"]


def test_rs402_clean_immutable_constants():
    findings = check(
        "from types import MappingProxyType\n"
        "BUCKETS = (1, 2, 3)\n"
        "STATES = frozenset({'a', 'b'})\n"
        "TABLE = MappingProxyType({'a': 1})\n"
        "__all__ = ['BUCKETS']\n"
    )
    assert findings == []


def test_rs402_only_hot_path_packages():
    for module in ("repro.obs.fixture", "repro.chaos.fixture", "repro.networking"):
        assert check("CACHE = {}\n", module=module) == [], module
    for module in ("repro.analysis.fixture", "repro.host.fixture", "repro.network"):
        assert rules_of(check("CACHE = {}\n", module=module)) == ["RS402"], module


def test_rs402_class_and_function_locals_not_flagged():
    findings = check(
        "class Switch:\n"
        "    def __init__(self):\n"
        "        self.table = {}\n"
        "def build():\n"
        "    acc = []\n"
        "    return acc\n"
    )
    assert findings == []
