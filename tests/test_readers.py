"""A reader outside ``tests/``, or it goes.

One rule for the six kinds of thing ``src/repro`` holds -- a package, a
public name, a lint rule, an option, a piece of state, a defaulted
parameter: it stays only while something outside ``tests/`` reads it.  A
*reader* is code under ``src``, ``benchmarks`` or ``examples``, or a
command or snippet in a CI workflow, README.md, DESIGN.md or
EXPERIMENTS.md; a package's ``__init__.py`` re-exporting a name, or
listing it in ``__all__``, is not one.  What only a test reads is a
checker (it lives under ``tests/``, beside ``naive_*.py``) or dead.

* State is an attribute a class stores (``self.x = ...``) or declares
  (``x: int``).  A load through ``self`` reads it only for the loading
  class and its ancestors and descendants, so one class's ``sent`` does
  not keep another's; a load through any other object, a ``getattr``
  string, a keyword or a string key reads it for every class.
* A defaulted parameter needs a call outside ``tests/`` that passes it,
  by keyword or by position, itself or through a forwarder
  (``FORWARDERS``, and the keys of a ``Row(network={...})`` literal); a
  text mention passes nothing.  One only tests pass is a constant: a
  test that needs another value sets the attribute, or patches the
  module constant, that the code reads.  A function handed over as a
  value (a listener, a callback, a ``partial``) is exempt, its caller
  being out of sight (a class so handed is not), and so is a CLI's
  ``main(argv)``, which the command line passes.

The whole file is one AST pass over the tree (:class:`Tree`, over the
session's one parse, :mod:`tests.checkout`) and the questions asked of
it; each question is also asked of a planted violation, so none can pass
by having stopped looking.  ``ALLOWED`` is
the list of exceptions: every entry carries the reason a test cannot do
without it, an entry the tree no longer needs fails, and the list's
length is held to ``ALLOWED_MAX``, which only goes down.  State only a
test reads stays only as a *test probe* in ``ATTR_ALLOWED``, which names
the test and also only shrinks.
"""

import ast
import builtins
import importlib
import pathlib
import random
import re

import pytest

from tests import test_discipline as discipline
from tests.checkout import ROOT, module_name, parse

#: where a reader may live: python trees, and the texts people run from
PY_ROOTS = ("src", "benchmarks", "examples")
TEXTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github")

#: the tooling's option classes (the protocol's ``*Params`` in
#: ``repro.core`` are the paper's tunables and out of scope)
OPTION_CLASS = re.compile(r"(Config|Params|Costs)$")

#: callees and the helpers that forward their keywords, ``**`` splat
#: included, into them: a helper's keyword is a pass to its callee, and so
#: is a key of a ``Row(network={...})`` literal to ``Network``
FORWARDERS = {"Network": ("build_network", "_build")}


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
    "def repro.net.forwarding.ForwardingTable.set_entry": (
        "plants one bad cell in a loaded table (tests/analysis/test_invariants.py's negative "
        "cases, the row-model differential); load() can only replace whole rows"
    ),
    "param repro.network.Network.__init__.sim": (
        "co-simulating two Autonets (section 6.8.2's Autonet-to-Autonet bridge) needs one "
        "shared simulator; tests/host/test_autonet_bridge.py is the only such installation"
    ),
    "param repro.network.Network.__init__.name": (
        "the same two Autonets need distinct switch names on that simulator"
    ),
}
ALLOWED_MAX = 3

#: state only tests read, each a test probe: the counter is the only
#: surface the named test can see the behaviour through
ATTR_ALLOWED = {
    "attr repro.host.bridge.Bridge.examined": (
        "test probe: tests/host/test_bridge_oracle.py::test_ethernet_bridge_forwards_as_the_old_one"
    ),
    "attr repro.host.bridge.Bridge.dropped_backlog": (
        "test probe: tests/host/test_bridge_oracle.py::test_autonet_bridge_forwards_as_the_old_one"
    ),
    "attr repro.host.bridge.Bridge.refused_large": (
        "test probe: tests/host/test_bridge.py::test_bridge_refuses_oversize_packets"
    ),
    "attr repro.host.bridge.Bridge.refused_encrypted": (
        "test probe: tests/host/test_bridge.py::test_bridge_refuses_encrypted_packets"
    ),
    "attr repro.host.ethernet.Ethernet.frames_carried": (
        "test probe: tests/host/test_serial_server_oracle.py::test_the_segment_carries_as_the_loop_did"
    ),
    "attr repro.host.ethernet.Ethernet.frames_dropped": (
        "test probe: tests/host/test_serial_server_oracle.py::"
        "test_a_busy_segment_refuses_beyond_its_bound_and_serves_in_order"
    ),
    "attr repro.host.ethernet.Ethernet.bytes_carried": (
        "test probe: tests/host/test_ethernet.py::TestEthernet::test_aggregate_capped_at_link_bandwidth"
    ),
    "attr repro.sim.trace.TraceLog.total_logged": (
        "test probe: tests/sim/test_trace_normalization.py::test_clear_resets_entries_but_not_the_total"
    ),
}
ATTR_ALLOWED_MAX = 8
TEST_ID = re.compile(r"^test probe: (tests/[\w/]+\.py)((?:::\w+)+)$")


# -- the one pass ----------------------------------------------------------------------


def _last_name(node):
    """``f`` of ``f(...)``, ``x.f(...)`` and ``super().f(...)``."""
    return getattr(node, "attr", getattr(node, "id", None))


def _strings(nodes):
    return {
        node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _receiver(function):
    """The ``self`` (or ``cls``) parameter's name; None for a staticmethod."""
    if any(_last_name(d) == "staticmethod" for d in function.decorator_list):
        return None
    args = function.args.posonlyargs + function.args.args
    return args[0].arg if args else None


class Tree:
    """Everything the questions need from one walk of a checkout."""

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
        #: CLI module -> its ``--flags``
        self.flags = {}
        #: method names called as ``x.method(...)``, per module
        self.method_calls = {}
        #: names of every function and class src/repro defines
        self.functions = set()
        self.classes = set()
        #: attributes src/repro classes store: qualified class -> names
        self.state = {}
        #: class name -> the names of its bases, over every python root
        self.bases = {}
        #: attributes a class loads through ``self``: class name -> names
        self.self_loads = {}
        #: attributes read any other way: through another object, a
        #: ``getattr`` string, a keyword or a string key
        self.loads = set()
        #: defaulted parameters of src/repro functions: (qualified def,
        #: callee name) -> [(positional slot, or None if keyword-only, name)]
        self.defaulted = {}
        #: callee name -> (most positionals passed, keywords passed) outside tests
        self.passed = {}
        #: functions and classes handed to a call as a value (callbacks)
        self.values = set()
        for module, (path, tree) in parse(root).items():
            top = path.split("/")[0]
            if top in PY_ROOTS:
                self._walk(module, tree, path)
                self._calls(tree)
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

    def _walk(self, module, tree, path):
        in_src = module.split(".")[0] == "repro"
        # a package's re-exports and its ``__all__`` are no reader
        reexports = in_src and path.endswith("/__init__.py")
        not_readers = set()
        dict_keys = None
        calls = self.method_calls.setdefault(module, set())
        through_self = self._classes(module, tree, in_src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.names.add(node.attr)
                self.members.add(node.attr)
                if isinstance(node.ctx, ast.Store):
                    self.stores.add(node.attr)
                elif isinstance(node.ctx, ast.Load) and id(node) not in through_self:
                    self.loads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                if not reexports:
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
            elif isinstance(node, ast.Dict):
                self.loads.update(_strings(node.keys))
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)) and id(node) not in not_readers:
                # ``getattr(result, metric) for metric in METRICS``
                self.loads.update(_strings(node.elts))
            elif isinstance(node, ast.Subscript):
                self.loads.update(_strings([node.slice]))
            elif isinstance(node, ast.Assign):
                # declaring ``__slots__`` reads none of them, nor does a
                # package's ``__all__`` read what it lists
                names = {getattr(target, "id", None) for target in node.targets}
                if "__slots__" in names or (reexports and "__all__" in names):
                    not_readers.update(id(n) for n in ast.walk(node.value))
            elif isinstance(node, ast.Call):
                callee = _last_name(node.func)
                if isinstance(node.func, ast.Attribute):
                    calls.add(node.func.attr)
                if callee in ("getattr", "setattr", "hasattr") and len(node.args) > 1:
                    # dispatch by name: ``getattr(endpoint, "attach_link", None)``
                    if isinstance(node.args[1], ast.Constant):
                        self.names.add(node.args[1].value)
                        self.members.add(node.args[1].value)
                        if callee != "setattr":
                            self.loads.add(node.args[1].value)
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        self.keywords.add((callee, keyword.arg))
                        self.loads.add(keyword.arg)
                    else:
                        # ``Config(**inputs["x"])``: the file's dict keys stand in
                        if dict_keys is None:
                            dict_keys = self._dict_keys(tree)
                        self.splat_keys.setdefault(callee, set()).update(dict_keys)
                if callee == "add_argument":
                    # neither the flag nor its help text is a reader of the flag
                    not_readers.update(id(n) for n in ast.walk(node))
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
            and id(node) not in not_readers
        )
        if in_src:
            self._definitions(tree.body, module, module)

    def _classes(self, module, tree, in_src):
        """Each class's bases, what its methods load through ``self`` and,
        in src/repro, what it stores; returns the ``self.x`` nodes, which
        read only for the class's own family."""
        through_self = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            self.bases.setdefault(cls.name, set()).update(map(_last_name, cls.bases))
            loads = self.self_loads.setdefault(cls.name, set())
            stored = set()
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    stored.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and _receiver(stmt):
                    me = _receiver(stmt)
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == me:
                            through_self.add(id(node))
                            if isinstance(node.ctx, ast.Store):
                                stored.add(node.attr)
                            elif isinstance(node.ctx, ast.Load):
                                loads.add(node.attr)
            if in_src:
                self.state.setdefault(f"{module}.{cls.name}", set()).update(
                    name for name in stored if not name.startswith("__")
                )
                for stmt in cls.body:
                    self._defaulted(stmt, f"{module}.{cls.name}", cls.name)
        if in_src:
            for stmt in tree.body:
                self._defaulted(stmt, module, None)
        return through_self

    def _defaulted(self, node, owner, cls):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if node.name.startswith("__") and node.name != "__init__":
            return
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if cls and _receiver(node):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        slots = [(slot, name) for slot, name in enumerate(positional) if slot >= first]
        slots += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if slots:
            callee = cls if node.name == "__init__" else node.name
            self.defaulted[(f"{owner}.{node.name}", callee)] = slots

    def _calls(self, tree):
        """What each call outside tests passes, and which functions are
        handed over positionally as a value (a listener, a callback, a
        ``partial``): a bare name only if it is the module's own or
        imported, since a local may share a function's name."""
        owned = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {getattr(node, "name", None) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _last_name(node.func)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            self._pass(callee, float("inf") if starred else len(node.args), keywords)
            for target, forwarders in FORWARDERS.items():
                if callee in forwarders:
                    self._pass(target, 0, keywords)
            network = next((k.value for k in node.keywords if k.arg == "network"), None)
            if callee == "Row" and isinstance(network, ast.Dict):
                self._pass("Network", 0, _strings(network.keys))
            if callee not in ("isinstance", "issubclass"):
                self.values.update(
                    _last_name(value)
                    for value in node.args
                    if isinstance(value, ast.Attribute)
                    or (isinstance(value, ast.Name) and value.id in owned)
                )

    def _pass(self, callee, positionals, keywords):
        if callee in FORWARDERS:
            # what a ``**`` splat into it carries, its forwarders' callers pass
            keywords = keywords - {None}
        most, passed = self.passed.get(callee, (0, frozenset()))
        self.passed[callee] = (max(most, positionals), passed | keywords)

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

    def mentions(self, pattern):
        """Does a text, a docstring or any other string outside an
        ``add_argument`` call match?"""
        regex = re.compile(pattern)
        return bool(regex.search(self.text)) or any(regex.search(s) for s in self.strings)


# -- the questions ---------------------------------------------------------------------


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
    """Option-class fields no caller sets, CLI flags no command, document
    or example gives."""
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
    for cli, flags in tree.flags.items():
        for flag in flags:
            if not tree.mentions(rf"(?<![\w-]){flag}(?![\w-])"):
                unset.add(f"flag {cli} {flag}")
    return unset


def family(tree, cls):
    """A class, what it inherits from and what inherits from it."""
    def ancestors(name, seen):
        for base in tree.bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                ancestors(base, seen)
        return seen
    up = ancestors(cls, {cls})
    return up | {name for name in tree.bases if cls in ancestors(name, set())}


def unread_state(tree):
    """Attributes a src/repro class stores that nothing outside ``tests/``
    loads: through ``self`` within the class's family, or any other way
    (another object, a ``getattr`` string, a keyword, a string key)."""
    unread = set()
    for qualified, names in tree.state.items():
        kin = family(tree, qualified.rsplit(".", 1)[1])
        for name in names - tree.loads:
            if not any(name in tree.self_loads.get(c, ()) for c in kin):
                unread.add(f"attr {qualified}.{name}")
    return unread


def unpassed_params(tree):
    """Defaulted parameters of src/repro functions no caller outside
    ``tests/`` passes, by keyword or by position, itself or through a
    forwarder.  A function passed as a value (a listener, a callback) is
    exempt, a class so passed is not, and a CLI's ``main(argv)`` is
    passed by the command line."""
    unpassed = set()
    for (qualified, callee), slots in tree.defaulted.items():
        if callee in tree.values and not qualified.endswith(".__init__"):
            continue
        if qualified.endswith(".__main__.main"):
            slots = [(slot, name) for slot, name in slots if name != "argv"]
        most, keywords = tree.passed.get(callee, (0, frozenset()))
        if None in keywords:
            continue
        for slot, name in slots:
            if (slot is None or slot >= most) and name not in keywords:
                unpassed.add(f"param {qualified}.{name}")
    return unpassed


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
    found = unread_defs(tree) | unset_options(tree) | unread_packages(tree) | unpassed_params(tree)
    assert sorted(found - set(ALLOWED)) == [], "no reader outside tests/: delete, or move to tests/"
    assert sorted(set(ALLOWED) - found) == [], "allow-listed, yet read or gone: drop the entry"
    assert all(reason.strip() for reason in ALLOWED.values())
    assert len(ALLOWED) <= ALLOWED_MAX, "the allow-list only shrinks"


def test_every_piece_of_state_has_a_reader_or_is_a_test_probe(tree):
    found = unread_state(tree)
    assert sorted(found - set(ATTR_ALLOWED)) == [], "no reader outside tests/: delete it"
    assert sorted(set(ATTR_ALLOWED) - found) == [], "a probe, yet read or gone: drop the entry"
    assert len(ATTR_ALLOWED) <= ATTR_ALLOWED_MAX, "the probes only shrink"
    for reason in ATTR_ALLOWED.values():
        match = TEST_ID.match(reason)
        assert match, f"a probe names its test: {reason}"
        path, names = match.groups()
        scope = parse(ROOT)[module_name(path)].tree
        for name in names.split("::")[1:]:
            scope = next((n for n in ast.walk(scope) if getattr(n, "name", None) == name), None)
            assert scope is not None, f"{reason}: no such test"


def test_every_defaulted_parameter_has_a_caller_that_passes_it(tree):
    found = unpassed_params(tree) - set(ALLOWED)
    assert sorted(found) == [], "only tests pass it: make it the constant it is"


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
        "src/repro/tool/__main__.py": (
            "import argparse\nparser = argparse.ArgumentParser()\n"
            "parser.add_argument('--used')\nparser.add_argument('--unused', help='--unused X')\n"
        ),
        "benchmarks/bench_x.py": (
            "ToolConfig(depth=1)\nToolConfig(**{'width': 2})\nconfig.stored = 1\n"
        ),
        "tests/test_x.py": "ToolConfig(spare=1)\n",
        "README.md": "run `python -m repro.tool --used 3`\n",
    })
    assert unset_options(planted) == {
        "field repro.tool.knobs.ToolConfig.spare",
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
        "src/repro/obs/timeseries.py": "def collect(point):\n    point.add_collector('x', 1)\n",
        "src/repro/net/switch.py": "def stamp(ib):\n    ib.record_hop(1)\n",
    })
    found = rules_without_a_call_site(
        planted,
        {"RS304": ("add_collector",), "RS305": ("record_hop",), "RS306": ("record_send",)},
        skipped_modules={"repro.obs.timeseries"},
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


def test_state_only_an_unrelated_class_loads_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/lan.py": (
            "class Station:\n    def __init__(self):\n        self.sent = 0\n"
            "        self.hops = 0\n        self.count = 0\n        self.keyed = 0\n"
            "        self.named = 0\n        self.passed = 0\n    def tick(self):\n"
            "        self.sent += 1\n\n"
            "class Relay(Station):\n    def show(self):\n        return self.hops\n\n"
            "class Record:\n    kept: int = 0\n    spare: int = 0\n"
        ),
        "src/repro/other.py": (
            "class Monitor:\n    def __init__(self):\n        self.sent = 1\n"
            "    def show(self, station, record):\n"
            "        return self.sent, station.count, record.kept, getattr(station, 'named')\n"
        ),
        "benchmarks/bench_x.py": "make(passed=1)\nrow = {'keyed': 1}\n",
        "tests/test_lan.py": "from repro.lan import Station\nassert Station().sent == 0\n",
    })
    assert unread_state(planted) == {
        "attr repro.lan.Station.sent",
        "attr repro.lan.Record.spare",
    }


def test_a_name_only_a_package_reexports_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/host/__init__.py": (
            "from repro.host.lan import MultiLan, Station\n__all__ = ['MultiLan', 'Station']\n"
        ),
        "src/repro/host/lan.py": "class MultiLan:\n    pass\n\nclass Station:\n    pass\n",
        "benchmarks/bench_x.py": "from repro.host import Station\n",
        "tests/test_lan.py": "from repro.host import MultiLan\n",
    })
    assert unread_defs(planted) == {"def repro.host.lan.MultiLan"}


def test_a_parameter_nobody_passes_is_found_unless_handed_over_as_a_value(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/parts.py": (
            "def make(n, ports=12, uids=None, seed=0, *, name='x'):\n    pass\n\n"
            "def note(t, event, attrs=None):\n    pass\n\n"
            "class Sampler:\n    def mark(self, t, event, attrs=None):\n        pass\n\n"
            "class Engine:\n    def __init__(self, sim, decision_ns=480):\n        pass\n"
        ),
        "src/repro/wire.py": (
            "from repro.parts import Engine, Sampler, make, note\n"
            "def boot(tracer, sampler):\n    tracer.add_listener(sampler.mark)\n"
            "    Engine(1)\n    make(1, 12)\n    note(0, 'e')\n"
            "    return isinstance(sampler, Engine)\n"
        ),
        "benchmarks/bench_x.py": "from repro.parts import make\nmake(2, seed=3, name='y')\n",
    })
    assert unpassed_params(planted) == {
        "param repro.parts.make.uids",
        "param repro.parts.note.attrs",
        "param repro.parts.Engine.__init__.decision_ns",
    }


def test_a_parameter_only_a_test_passes_is_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/ring.py": (
            "class TraceLog:\n    def __init__(self, capacity=4096):\n        pass\n"
        ),
        "src/repro/run.py": "from repro.ring import TraceLog\nlog = TraceLog()\n",
        "tests/test_ring.py": (
            "from repro.ring import TraceLog\nTraceLog(8)\nTraceLog(capacity=8)\n"
        ),
    })
    assert unpassed_params(planted) == {"param repro.ring.TraceLog.__init__.capacity"}


def test_a_cli_main_argv_is_not_found(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/tool/__main__.py": (
            "def main(argv=None, verbose=False):\n    pass\n\n"
            "if __name__ == '__main__':\n    main()\n"
        ),
        "src/repro/tool/cli.py": "def main(argv=None):\n    pass\n",
    })
    assert unpassed_params(planted) == {
        "param repro.tool.__main__.main.verbose",
        "param repro.tool.cli.main.argv",
    }


def test_a_forwarded_network_keyword_counts_as_a_pass(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/network.py": (
            "class Network:\n"
            "    def __init__(self, spec, seed=0, tagged=False, flight=False, sim=None):\n"
            "        pass\n"
        ),
        "src/repro/chaos/campaign.py": (
            "from repro.network import Network\n"
            "def build_network(spec, **observers):\n    return Network(spec, **observers)\n"
        ),
        "benchmarks/bench_x.py": (
            "from repro.chaos.campaign import build_network\nfrom repro.network import Network\n"
            "Rig(Row(spec, network={'tagged': True}))\nbuild_network(spec, flight=True)\n"
            "patch(Network, '__init__')\n"
        ),
    })
    assert unpassed_params(planted) == {
        "param repro.network.Network.__init__.seed",
        "param repro.network.Network.__init__.sim",
    }


def test_a_text_mention_is_no_pass(tmp_path):
    planted = plant(tmp_path, {
        "src/repro/plot.py": (
            "def sparkline(values, width=24):\n    pass\n\n"
            "def show(values):\n    'sparkline(values, width=8)'\n    return sparkline(values)\n"
        ),
        "README.md": "`sparkline(values, width=8)` draws it narrower\n",
    })
    assert unpassed_params(planted) == {"param repro.plot.sparkline.width"}


def test_a_doc_name_that_does_not_resolve_is_found():
    text = (
        "`repro.net.link` carries it, `repro.net.channel` never existed; "
        "`repro.network.Network.add_host()` and `repro.net.switch.CpSink` are attributes, "
        "`repro.net.switch.Crossbeam` is not; `repro.bench/1` is a schema tag."
    )
    assert unresolved_doc_names(text, resolves) == {
        "repro.net.channel",
        "repro.net.switch.Crossbeam",
    }
