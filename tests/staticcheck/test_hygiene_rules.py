"""RS4xx fixtures: mutable-state hygiene."""

from tests.staticcheck import case

# -- RS401: mutable default arguments -------------------------------------------------

test_rs401_list_dict_set_defaults_flagged = case(tuple(
    f"def f(x={default}):\n    return x\n"
    for default in ("[]", "{}", "set()", "list()", "dict()", "defaultdict(list)")
), ["RS401"])
test_rs401_kwonly_and_lambda_defaults_flagged = case(
    ("def f(*, acc=[]):\n    return acc\n", "g = lambda acc=[]: acc\n"), ["RS401"])
test_rs401_applies_outside_hot_packages_too = case(
    "def f(x=[]):\n    return x\n", ["RS401"], module="repro.analysis.fixture")
test_rs401_clean_none_default_and_field_factory = case((
    "def f(x=None):\n    return [] if x is None else x\n",
    "from dataclasses import dataclass, field\n@dataclass\nclass Spec:\n"
    "    cables: list = field(default_factory=list)\n",
))

# -- RS402: module-level mutable state ------------------------------------------------

test_rs402_module_level_containers_flagged = case(tuple(
    f"CACHE = {value}\n" for value in ("{}", "[]", "set()", "defaultdict(list)")
), ["RS402"])
test_rs402_annotated_module_global_flagged = case("REGISTRY: dict = {}\n", ["RS402"])
test_rs402_clean_immutable_constants = case(
    "from types import MappingProxyType\nBUCKETS = (1, 2, 3)\n"
    "STATES = frozenset({'a', 'b'})\nTABLE = MappingProxyType({'a': 1})\n"
    "__all__ = ['BUCKETS']\n")
test_rs402_only_hot_path_packages = case(
    "CACHE = {}\n", ["RS402"],
    module=("repro.analysis.fixture", "repro.host.fixture", "repro.network"))
test_rs402_not_in_obs_chaos_or_a_namesake = case(
    "CACHE = {}\n", module=("repro.obs.fixture", "repro.chaos.fixture", "repro.networking"))
test_rs402_class_and_function_locals_not_flagged = case(
    "class Switch:\n    def __init__(self):\n        self.table = {}\n"
    "def build():\n    acc = []\n    return acc\n")
