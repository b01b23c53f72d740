"""A reader outside ``tests/``, or it goes.

One rule for the four kinds of thing ``src/repro`` holds -- a package, a
public name, a lint rule, an option: it stays only while something
outside ``tests/`` reads it.  A *reader* is code under ``src``,
``benchmarks`` or ``examples``, or a command or snippet in a CI workflow,
README.md, DESIGN.md or EXPERIMENTS.md.  What only a test reads is a
checker (it lives under ``tests/``, beside ``naive_*.py``) or dead.

The whole file is one AST pass over the tree (:class:`Tree`, over the
session's one parse, :mod:`tests.checkout`) and the questions asked of
it; each question is also asked of a planted violation, so none can pass
by having stopped looking.  ``ALLOWED`` is
the list of exceptions: every entry carries the reason a test cannot do
without it, an entry the tree no longer needs fails, and the list's
length is held to ``ALLOWED_MAX``, which only goes down.
"""

import ast
import builtins
import importlib
import pathlib
import random
import re

import pytest

from tests import test_discipline as discipline
from tests.checkout import ROOT, parse

#: where a reader may live: python trees, and the texts people run from
PY_ROOTS = ("src", "benchmarks", "examples")
TEXTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github")

#: the tooling's option classes (the protocol's ``*Params`` in
#: ``repro.core`` are the paper's tunables and out of scope)
OPTION_CLASS = re.compile(r"(Config|Params|Costs)$")

#: functions whose every defaulted parameter needs a caller that sets it,
#: and the helpers that forward their keywords into them
OPTION_FUNCTIONS = {
    "Network.__init__": ("Network", "build_network", "_build"),
    "Network.add_host": ("add_host",),
    "Network.run_until_converged": ("run_until_converged",),
}


def call_site_rules():
    """The rules that police *how* a named method is called, and the
    methods each names: each needs a call of every one somewhere the
    check looks."""
    series = {rule: methods for rule, (methods, _) in discipline.NAMED_SERIES.items()}
    guards = {rule: methods for rule, _, methods, _ in discipline.GUARDS}
    return {**series, **guards}


#: what only tests read and still stays, with what the test cannot
#: otherwise do
ALLOWED = {
    "def repro.host.multilan.MultiLan.attach_autonet": (
        "Figure 4's attachment call: the only way to put an Autonet under a MultiLan, "
        "which tests/host/test_multilan.py needs to switch networks mid-RPC (section 5.5)"
    ),
    "def repro.host.multilan.MultiLan.attach_ethernet": (
        "the Ethernet half of the same: a MultiLan with one kind of network switches nothing"
    ),
    "def repro.net.forwarding.ForwardingTable.set_entry": (
        "plants one bad cell in a loaded table (tests/analysis/test_invariants.py's negative "
        "cases, the row-model differential); load() can only replace whole rows"
    ),
    "param Network.__init__.sim": (
        "co-simulating two Autonets (section 6.8.2's Autonet-to-Autonet bridge) needs one "
        "shared simulator; tests/host/test_autonet_bridge.py is the only such installation"
    ),
    "param Network.__init__.name": (
        "the same two Autonets need distinct switch names on that simulator"
    ),
}
ALLOWED_MAX = 5


# -- the one pass ----------------------------------------------------------------------


class Tree:
    """Everything the five questions need from one walk of a checkout."""

    def __init__(self, root):
        #: identifiers loaded, imported or named by attribute outside tests
        self.names = set()
        #: the subset a method can be read by: attributes, imports and
        #: ``getattr`` strings (a bare name is a local, never a method)
        self.members = set()
        #: (callee's last name, keyword) for every keyword argument passed
        self.keywords = set()
        #: attributes assigned: ``x.field = ...``
        self.stores = set()
        #: string keys of dict literals, per file that splats a ``**`` call
        self.splat_keys = {}
        #: every string constant that is not an ``add_argument`` flag, joined
        self.strings = []
        #: ``repro.x`` modules imported, with the importing module
        self.imports = set()
        #: qualified public defs of src/repro: name -> defining module
        self.defs = {}
        #: option classes: qualified class -> field names
        self.option_fields = {}
        #: defaulted parameters of OPTION_FUNCTIONS
        self.option_params = {}
        #: CLI module -> its ``--flags``
        self.flags = {}
        #: method names called as ``x.method(...)``, per module
        self.method_calls = {}
        #: names of every function and class src/repro defines
        self.functions = set()
        self.classes = set()
        for module, (path, tree) in parse(root).items():
            if path.split("/")[0] in PY_ROOTS:
                self._walk(module, tree)
        self.text = "\n".join(
            file.read_text()
            for entry in TEXTS
            for file in self._text_files(root / entry)
        )

    @staticmethod
    def _text_files(path):
        if path.is_dir():
            return sorted(p for p in path.rglob("*") if p.suffix in (".yml", ".yaml", ".md"))
        return [path] if path.exists() else []

    def _walk(self, module, tree):
        in_src = module.split(".")[0] == "repro"
        flag_nodes = set()
        dict_keys = None
        calls = self.method_calls.setdefault(module, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.names.add(node.attr)
                self.members.add(node.attr)
                if isinstance(node.ctx, ast.Store):
                    self.stores.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                self.names.update(alias.name for alias in node.names)
                self.members.update(alias.name for alias in node.names)
                if node.module and node.module.split(".")[0] == "repro":
                    self.imports.add((node.module, module))
                    # ``from repro import network`` imports repro.network
                    self.imports.update(
                        (f"{node.module}.{alias.name}", module) for alias in node.names
                    )
            elif isinstance(node, ast.Import):
                self.imports.update((alias.name, module) for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and in_src:
                self.functions.add(node.name)
            elif isinstance(node, ast.ClassDef) and in_src:
                self.classes.add(node.name)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if isinstance(node.func, ast.Attribute):
                    calls.add(node.func.attr)
                if callee in ("getattr", "setattr", "hasattr") and len(node.args) > 1:
                    # dispatch by name: ``getattr(endpoint, "attach_link", None)``
                    if isinstance(node.args[1], ast.Constant):
                        self.names.add(node.args[1].value)
                        self.members.add(node.args[1].value)
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        self.keywords.add((callee, keyword.arg))
                    else:
                        # ``Config(**inputs["x"])``: the file's dict keys stand in
                        if dict_keys is None:
                            dict_keys = self._dict_keys(tree)
                        self.splat_keys.setdefault(callee, set()).update(dict_keys)
                if callee == "add_argument":
                    # neither the flag nor its help text is a reader of the flag
                    flag_nodes.update(id(n) for n in ast.walk(node))
                    if module.endswith(".__main__"):
                        self.flags.setdefault(module[: -len(".__main__")], set()).update(
                            a.value
                            for a in node.args
                            if isinstance(a, ast.Constant) and str(a.value).startswith("--")
                        )
        self.strings.extend(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in flag_nodes
        )
        if in_src:
            self._definitions(tree.body, module, module)

    @staticmethod
    def _dict_keys(tree):
        return {
            key.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }

    def _definitions(self, body, module, owner):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualified = f"{owner}.{node.name}"
            if not node.name.startswith("_"):
                self.defs[qualified] = module
            if isinstance(node, ast.ClassDef):
                self._definitions(node.body, module, qualified)
                if OPTION_CLASS.search(node.name) and not module.startswith("repro.core"):
                    self.option_fields[qualified] = [
                        stmt.target.id
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    ]
            else:
                function = qualified[len(module) + 1:]
                if function in OPTION_FUNCTIONS:
                    args = node.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    self.option_params[function] = [a.arg for a in defaulted]

    def mentions(self, pattern):
        """Does a text, a docstring or any other string outside an
        ``add_argument`` call match?"""
        regex = re.compile(pattern)
        return bool(regex.search(self.text)) or any(regex.search(s) for s in self.strings)


# -- the five questions ------------------------------------------------------------------


def unread_defs(tree):
    """Public module- or class-level defs of ``src/repro`` nothing
    outside ``tests/`` names.  A class-level def is read only by an
    attribute, an import, a ``getattr`` string or ``name(`` in the texts:
    a local or a parameter of the same name elsewhere is not a reader."""
    unread = set()
    for qualified, module in tree.defs.items():
        owner, name = qualified.rsplit(".", 1)
        if owner == module:
            read = name in tree.names
        else:
            read = name in tree.members or re.search(rf"\b{name}\(", tree.text)
        if not read:
            unread.add(f"def {qualified}")
    return unread


def unset_options(tree):
    """Option-class fields no caller sets, defaulted parameters no caller
    passes, CLI flags no command, document or example gives."""
    unset = set()
    for qualified, fields in tree.option_fields.items():
        cls = qualified.rsplit(".", 1)[1]
        for name in fields:
            if (
                (cls, name) not in tree.keywords
                and name not in tree.splat_keys.get(cls, ())
                and name not in tree.stores
            ):
                unset.add(f"field {qualified}.{name}")
    for function, params in tree.option_params.items():
        for name in params:
            passed = any((callee, name) in tree.keywords for callee in OPTION_FUNCTIONS[function])
            if not passed and not tree.mentions(rf"\b{name}="):
                unset.add(f"param {function}.{name}")
    for cli, flags in tree.flags.items():
        for flag in flags:
            if not tree.mentions(rf"(?<![\w-]){flag}(?![\w-])"):
                unset.add(f"flag {cli} {flag}")
    return unset


def unread_packages(tree):
    """Top-level ``repro.x`` nothing outside itself imports or runs."""
    tops = {
        ".".join(module.split(".")[:2])
        for module in tree.defs.values()
        if module.count(".") >= 1
    }
    unread = set()
    for package in tops:
        imported = any(
            (target == package or target.startswith(package + "."))
            and not (importer == package or importer.startswith(package + "."))
            for target, importer in tree.imports
        )
        if not imported and not tree.mentions(rf"python3? -m {re.escape(package)}\b"):
            unread.add(f"package {package}")
    return unread


def _src_calls(tree, skipped_modules=()):
    called = set()
    for module, methods in tree.method_calls.items():
        if module.startswith("repro.") and module not in skipped_modules:
            called |= methods
    return called


def rules_without_a_call_site(tree, methods_by_rule, skipped_modules):
    """Call-shape rules naming a method no checked module calls."""
    called = _src_calls(tree, skipped_modules)
    return {
        f"rule {rule} ({method} is called nowhere the check looks)"
        for rule, methods in methods_by_rule.items()
        for method in methods
        if method not in called
    }


def names_src_lacks(tree, methods, classes):
    """A check's table names: methods src/repro neither calls nor
    defines, classes it does not have."""
    known = _src_calls(tree) | tree.functions
    return {f"method {name}" for name in methods if name not in known} | {
        f"class {name}" for name in classes if name not in tree.classes
    }


def in_the_stdlib(name):
    """A forbidden callee (``time.time``, ``print``, ``socket.``) exists."""
    name = name.rstrip(".")
    return hasattr(builtins, name) or resolves(name)


DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def unresolved_doc_names(text, resolve):
    """Back-quoted ``repro.x.y`` that is neither a module nor an attribute
    of one (``repro.bench/1`` and other schema tags do not match)."""
    return {name for name in set(DOTTED.findall(text)) if not resolve(name)}


def resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


# -- the real tree -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree():
    return Tree(ROOT)


def test_every_def_option_and_package_has_a_reader_or_a_reason(tree):
    found = unread_defs(tree) | unset_options(tree) | unread_packages(tree)
    assert sorted(found - set(ALLOWED)) == [], "no reader outside tests/: delete, or move to tests/"
    assert sorted(set(ALLOWED) - found) == [], "allow-listed, yet read or gone: drop the entry"
    assert all(reason.strip() for reason in ALLOWED.values())
    assert len(ALLOWED) <= ALLOWED_MAX, "the allow-list only shrinks"


def test_no_package_is_exempt_from_purity_for_not_being_the_system():
    assert discipline.EXEMPT_PACKAGES == ("repro.analysis",)
    for moved in ("experiments", "baselines", "staticcheck"):
        assert not (ROOT / "src" / "repro" / moved).exists()


def test_every_call_shape_rule_has_a_call_site(tree):
    methods_by_rule = call_site_rules()
    rules = [rule for rule in discipline.RULES if rule.startswith("RS3")]
    assert sorted(methods_by_rule) == rules, "one entry per RS3xx rule, none for a gone one"
    assert all(methods_by_rule.values())
    assert rules_without_a_call_site(
        tree, methods_by_rule, discipline.IMPLEMENTATION_MODULES
    ) == set()


def test_every_name_a_check_carries_exists(tree):
    """Beyond the call-shape rules: each method a table names is called
    or defined in src, each component type is a class there, and each
    stdlib name is an attribute of what the check says it is."""
    assert names_src_lacks(tree, discipline.SCHEDULE_SINKS, discipline.COMPONENT_TYPES) == set()
    assert sorted(discipline.RNG_DRAW_SINKS - set(dir(random.Random))) == []
    assert sorted(discipline.BLOCKING_ATTRS - set(dir(pathlib.Path))) == []
    assert sorted(n for n in discipline.FORBIDDEN_CALLS if not in_the_stdlib(n)) == []


def test_every_dotted_name_in_the_docs_resolves(tree):
    docs = "\n".join((ROOT / name).read_text() for name in TEXTS[:3])
    assert sorted(unresolved_doc_names(docs, resolves)) == []


# -- planted violations: each question still finds what it is for ------------------------


def plant(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return Tree(root)


def test_a_def_only_a_test_reads_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/kept.py": "def used():\n    pass\n\nclass Box:\n    def peek(self):\n"
                             "        pass\n    def _private(self):\n        pass\n",
        "benchmarks/bench_x.py": "from repro.kept import used\nused()\n",
        "tests/test_kept.py": "from repro.kept import Box\nBox().peek()\n",
    })
    assert unread_defs(planted) == {"def repro.kept.Box", "def repro.kept.Box.peek"}


def test_a_method_whose_name_is_only_a_local_elsewhere_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/kept.py": (
            "class Spec:\n    def degree(self):\n        pass\n    def shown(self):\n"
            "        pass\n    def called(self):\n        pass\n"
        ),
        "src/repro/gen.py": (
            "from repro.kept import Spec\n\ndef grow(degree):\n    usable = degree\n"
            "    Spec().called()\n    return usable\n"
        ),
        "benchmarks/bench_x.py": "from repro.gen import grow\ngrow(3)\n",
        "README.md": "`spec.shown()` prints it\n",
    })
    assert unread_defs(planted) == {"def repro.kept.Spec.degree"}


def test_an_option_nobody_sets_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/tool/knobs.py": (
            "class ToolConfig:\n    depth: int = 3\n    width: int = 4\n    spare: int = 5\n"
            "    stored: int = 6\n"
        ),
        "src/repro/core/params.py": "class MonitorParams:\n    paper_tunable: int = 1\n",
        "src/repro/network.py": (
            "class Network:\n"
            "    def __init__(self, spec, seed=0, verbose=False, *, strict=True):\n        pass\n"
            "    def add_host(self, name, link_km=0.1):\n        pass\n"
        ),
        "src/repro/tool/__main__.py": (
            "import argparse\nparser = argparse.ArgumentParser()\n"
            "parser.add_argument('--used')\nparser.add_argument('--unused', help='--unused X')\n"
        ),
        "benchmarks/bench_x.py": (
            "ToolConfig(depth=1)\nToolConfig(**{'width': 2})\nconfig.stored = 1\n"
            "build_network(spec, seed=1)\n"
        ),
        "tests/test_x.py": "ToolConfig(spare=1)\nNetwork(spec, verbose=True)\n",
        "README.md": "run `python -m repro.tool --used 3`, or `Network(spec, strict=False)`\n",
    })
    assert unset_options(planted) == {
        "field repro.tool.knobs.ToolConfig.spare",
        "param Network.__init__.verbose",
        "param Network.add_host.link_km",
        "flag repro.tool --unused",
    }


def test_a_package_nothing_imports_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/system/a.py": "def f():\n    pass\n",
        "src/repro/rig/b.py": "from repro.rig import c\ndef g():\n    pass\n",
        "src/repro/rig/c.py": "def h():\n    pass\n",
        "src/repro/tool/__main__.py": "def main():\n    pass\n",
        "examples/e.py": "from repro.system.a import f\n",
        "tests/test_rig.py": "from repro.rig.b import g\n",
        ".github/workflows/ci.yml": "run: python -m repro.tool --json out\n",
    })
    assert unread_packages(planted) == {"package repro.rig"}


def test_a_rule_without_a_call_site_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/obs/sweep.py": "def collect(point):\n    point.add_collector('x', 1)\n",
        "src/repro/net/switch.py": "def stamp(ib):\n    ib.record_hop(1)\n",
    })
    found = rules_without_a_call_site(
        planted,
        {"RS304": ("add_collector",), "RS305": ("record_hop",), "RS306": ("record_send",)},
        skipped_modules={"repro.obs.sweep"},
    )
    assert found == {
        "rule RS304 (add_collector is called nowhere the check looks)",
        "rule RS306 (record_send is called nowhere the check looks)",
    }


def test_a_table_name_src_lacks_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/net/link.py": "class Link:\n    def send(self):\n        pass\n",
        "src/repro/core/boot.py": "def boot(sim):\n    sim.after(1, boot)\n",
        "benchmarks/bench_x.py": "sim.emit(1)\n\nclass Host:\n    pass\n",
    })
    found = names_src_lacks(planted, {"send", "after", "emit"}, {"Link", "Host"})
    assert found == {"method emit", "class Host"}
    assert in_the_stdlib("time.perf_counter") and in_the_stdlib("print")
    assert not in_the_stdlib("time.wallclock") and not in_the_stdlib("no_such_module.")


def test_a_doc_name_that_does_not_resolve_is_found():
    text = (
        "`repro.net.link` carries it, `repro.net.channel` never existed; "
        "`repro.network.Network.add_host()` and `repro.net.switch.Crossbar` are attributes, "
        "`repro.net.switch.Crossbeam` is not; `repro.bench/1` is a schema tag."
    )
    assert unresolved_doc_names(text, resolves) == {
        "repro.net.channel",
        "repro.net.switch.Crossbeam",
    }
