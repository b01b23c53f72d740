"""What a file of ``src/repro`` may do: the repo's AST discipline.

A run is a function of (topology, seed, schedule) (§6.6), every timeout
a protocol constant on the sim clock (§6.2), and output goes through the
one merged log (§6.7).  Each check holds one file to a part of that; it
is a function ``(module name, ast.Module) -> [(line, rule, message)]``
driven by name tables, so ``tests/staticcheck/`` runs it on snippets and
on mutants of the real tree, and each rule (a row of DESIGN.md's "Static
checking") flags a mutant that nothing else catches.  The real tree is
the one parse of the checkout (:mod:`tests.checkout`) that the readers
ratchet reads too.  ``ALLOWED`` names the files that break a rule on
purpose, each with its reason; an entry that matches nothing fails, and
``ALLOWED_MAX`` only goes down.
"""

import ast
import subprocess
import sys

from tests.checkout import ROOT, parse

RULES = (
    "RS101", "RS102", "RS103", "RS104", "RS105", "RS201", "RS202", "RS203",
    "RS303", "RS304", "RS305", "RS306", "RS401", "RS402",
)

#: packages whose code runs inside the event loop (RS201, RS202)
HOT_PACKAGES = (
    "repro.net", "repro.core", "repro.sim", "repro.host", "repro.obs", "repro.topology",
    "repro.chaos",
)
#: presenting results is their job, as it is every ``__main__``'s
EXEMPT_PACKAGES = ("repro.analysis",)
#: where a method's peer is another switch, Autopilot or link unit (RS203)
COMPONENT_PACKAGES = ("repro.net", "repro.core", "repro.host")
#: the instruments themselves pass series names and layers around (RS3xx)
IMPLEMENTATION_MODULES = frozenset({
    "repro.obs.flight", "repro.obs.spans", "repro.obs.timeseries", "repro.obs.inband",
    "repro.obs.control",
})
#: what a Network is built from and run by (RS402)
GLOBAL_STATE_PACKAGES = (
    "repro.net", "repro.sim", "repro.core", "repro.host", "repro.topology", "repro.traffic",
    "repro.analysis", "repro.network", "repro.scenario", "repro.types", "repro.constants",
)


def within(module, packages):
    return any(module == package or module.startswith(package + ".") for package in packages)


def _in_the_loop(module):
    return (
        within(module, HOT_PACKAGES)
        and not within(module, EXEMPT_PACKAGES)
        and not module.endswith("__main__")
    )


# -- RS101, RS102, RS103, RS201, RS202: calls a module may not make -------------------

#: dotted callee -> rule; a key ending in "." forbids every callee under it
FORBIDDEN_CALLS = {
    **dict.fromkeys((
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
        "datetime.date.today",
    ), "RS101"),
    # every function of the random module, and an unseeded Random()
    **dict.fromkeys(("random.", "random.Random"), "RS102"),
    **dict.fromkeys((
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
        "secrets.",
    ), "RS103"),
    **dict.fromkeys((
        "open", "input", "breakpoint", "time.sleep", "os.system", "os.popen", "socket.",
        "subprocess.", "urllib.", "http.",
    ), "RS201"),
    "print": "RS202",
}
#: methods that are file I/O whatever their receiver (RS201)
BLOCKING_ATTRS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})
CALL_MESSAGES = {
    "RS101": "wall-clock read {}() leaks host time into simulated behaviour",
    "RS102": "{}() draws from the process-global or an unseeded random stream",
    "RS103": "{}() draws OS entropy and can never replay",
    "RS201": "{}() blocks the event loop or touches the outside world",
    "RS202": "{}() writes to stdout from inside the event loop",
}


def _origins(tree):
    """Local name -> the dotted name it was imported as."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):  # a from-import wins over a module of the same name
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    return found


def _chain(node):
    """``["self", "sim", "metrics"]`` of ``self.sim.metrics``; [] if its
    root is not a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else []


def _resolve(node, origins):
    """Canonical dotted callee (``t.monotonic`` after ``import time as t``
    is ``time.monotonic``); a bare name nothing imported is a builtin or a
    local; anything else is None."""
    chain = _chain(node)
    if chain and chain[0] in origins:
        return ".".join([origins[chain[0]], *chain[1:]])
    return chain[0] if len(chain) == 1 else None


def _forbidden(name):
    if name is None or name in FORBIDDEN_CALLS:
        return FORBIDDEN_CALLS.get(name)
    prefixes = (key for key in FORBIDDEN_CALLS if key.endswith("."))
    return next((FORBIDDEN_CALLS[p] for p in prefixes if name.startswith(p)), None)


def forbidden_calls(module, tree):
    """RS101-103 anywhere, RS201/202 where the event loop runs: a call
    of ``FORBIDDEN_CALLS``, or of a ``BLOCKING_ATTRS`` method."""
    origins = _origins(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolve(node.func, origins)
        rule = _forbidden(name)
        if name == "random.Random" and (node.args or node.keywords):
            rule = None  # a seeded stream
        if rule is None and getattr(node.func, "attr", None) in BLOCKING_ATTRS:
            name, rule = f"*.{node.func.attr}", "RS201"
        if rule is not None and (rule.startswith("RS1") or _in_the_loop(module)):
            found.append((node.lineno, rule, CALL_MESSAGES[rule].format(name)))
    return found


# -- RS104: orders that change with the process ------------------------------------


def _id_or_hash(key):
    if isinstance(key, ast.Name) and key.id in ("id", "hash"):
        return key.id
    if isinstance(key, ast.Lambda):
        for node in ast.walk(key.body):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("id", "hash"):
                return node.func.id
    return None


def id_hash_order(module, tree):
    """RS104: ``sorted``/``min``/``max``/``.sort`` keyed by ``id()`` or ``hash()``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (
            getattr(node.func, "id", None) in ("sorted", "min", "max")
            or getattr(node.func, "attr", None) == "sort"
        ):
            continue
        for keyword in node.keywords:
            bad = _id_or_hash(keyword.value) if keyword.arg == "key" else None
            if bad is not None:
                found.append((keyword.value.lineno, "RS104",
                              f"ordering by {bad}() varies across processes and hash seeds"))
    return found


# -- RS105: hash order feeding the schedule or a draw --------------------------------

#: methods whose call order is observable: event scheduling and packet emission
SCHEDULE_SINKS = frozenset({"at", "after", "call_soon", "run_soon", "every", "send", "transmit",
                            "arm"})
#: draws of a ``random.Random`` stream
RNG_DRAW_SINKS = frozenset({"choice", "choices", "shuffle", "sample", "random", "randint",
                            "randrange", "uniform", "gauss", "expovariate"})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.Lambda)
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _own(nodes):
    """These nodes and their descendants, in order, leaving out every
    function and lambda (each function is its own scope)."""
    for node in nodes:
        if not isinstance(node, SCOPES):
            yield node
            yield from _own(ast.iter_child_nodes(node))


def _is_set(node, sets, operand=False):
    """Built as a set, bound to one, or a set operation.  A keys view is
    a set only as an operand of ``| & - ^``: iterated, it is insertion
    order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in sets
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) in ("set", "frozenset") or (
            operand and isinstance(node.func, ast.Attribute) and node.func.attr == "keys"
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        return _is_set(node.left, sets, True) or _is_set(node.right, sets, True)
    return False


def _sink(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SCHEDULE_SINKS | RNG_DRAW_SINKS
    )


def unordered_iteration(module, tree):
    """RS105: a loop over a set whose body schedules or draws, or a set
    (or a list of one) handed straight to a call that does; once per
    loop, in the function (or module) it belongs to."""
    found = []
    functions = (node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))
    for scope in (tree, *functions):
        sets = set()
        for node in _own(scope.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _is_set(node.value, sets):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                sets.update(target.id for target in targets if isinstance(target, ast.Name))
        for node in _own(scope.body):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set(node.iter, sets):
                sink = next((call.func.attr for call in _own(node.body) if _sink(call)), None)
                if sink is not None:
                    found.append((node.lineno, "RS105",
                                  f"iterating a set while calling .{sink}() puts hash order "
                                  "into the schedule or the draws"))
            elif _sink(node):
                for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                    for sub in ast.walk(arg):
                        listed = isinstance(sub, (ast.ListComp, ast.GeneratorExp)) \
                            and _is_set(sub.generators[0].iter, sets)
                        if listed or (sub is arg and _is_set(arg, sets)):
                            found.append((sub.lineno, "RS105",
                                          f".{node.func.attr}() consumes a set in hash order"))
    return found


# -- RS203: components share no memory ------------------------------------------------

#: parameter names that denote another component
PEER_PARAM_NAMES = frozenset({"other", "peer", "neighbor", "neighbour", "remote"})
#: classes of src/repro that are components
COMPONENT_TYPES = frozenset({"Switch", "Autopilot", "LinkUnit"})


def _type_name(annotation):
    """Outer class name of an annotation, ``Optional[...]`` and string
    annotations unwrapped."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        inner = annotation.slice
        if _type_name(annotation.value) not in ("Optional", "Union"):
            return _type_name(annotation.value)
        return _type_name(inner.elts[0] if isinstance(inner, ast.Tuple) else inner)
    return getattr(annotation, "attr", getattr(annotation, "id", None))


def _written_attribute(stmt):
    if isinstance(stmt, ast.Assign):
        return next((t for t in stmt.targets if isinstance(t, ast.Attribute)), None)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) and isinstance(stmt.target, ast.Attribute):
        return stmt.target
    return None


def peer_writes(module, tree):
    """RS203: a method (not a dunder, which may wire components together)
    assigning an attribute of a peer parameter, one named or typed as a
    component, or calling a method of such an attribute (``peer.fifo.clear()``
    mutates the peer as surely; ``peer.method()`` is the peer's own)."""
    if not (within(module, COMPONENT_PACKAGES) and _in_the_loop(module)):
        return []
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for method in cls.body:
            if not isinstance(method, FUNCTIONS) or method.name.startswith("__"):
                continue
            args = [*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs]
            peers = {
                arg.arg for index, arg in enumerate(args)
                if not (index == 0 and arg.arg in ("self", "cls"))
                and (arg.arg in PEER_PARAM_NAMES or _type_name(arg.annotation) in COMPONENT_TYPES)
            }
            if not peers:
                continue
            for stmt in ast.walk(method):
                root, what = _written_attribute(stmt), "writes attributes of"
                if isinstance(stmt, ast.Call) and isinstance(stmt.func, ast.Attribute) \
                        and isinstance(stmt.func.value, ast.Attribute):
                    root, what = stmt.func.value, "calls into the state of"
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in peers:
                    found.append((stmt.lineno, "RS203", f"{cls.name}.{method.name} {what} "
                                  f"peer component {root.id!r} directly"))
    return found


# -- RS304: a static set of series ---------------------------------------------------

#: rule -> (calls whose first argument names a series, hints of their receiver's name)
NAMED_SERIES = {
    "RS304": (frozenset({"add_collector"}), ("sampler",)),
}


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _series_call(node, rule, hints):
    receiver = ".".join(_chain(node.func.value))
    if not any(hint in receiver.rsplit(".", 1)[-1] for hint in hints):
        return []
    found = []
    if node.args and not _is_str(node.args[0]):
        found.append((node.args[0].lineno, rule,
                      f"{receiver}.{node.func.attr}() names its series with a computed string"))
    callbacks = [v for v in [*node.args[1:], *(k.value for k in node.keywords)]
                 if isinstance(v, ast.Lambda)]
    return found + [
        (sub.lineno, rule, "a collector callback calls .append(): it grows at the "
         "sampling rate")
        for callback in callbacks for sub in ast.walk(callback.body)
        if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "append"
    ]


def series_names(module, tree):
    """RS304: a sampler series named by a computed string, or a collector
    callback that appends."""
    if module in IMPLEMENTATION_MODULES:
        return []
    return [
        finding
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        for rule, (methods, hints) in NAMED_SERIES.items()
        if getattr(node.func, "attr", None) in methods
        for finding in _series_call(node, rule, hints)
    ]


# -- RS303, RS305, RS306: a layer that is off costs one load and a None test -----------

#: (rule, attributes that hold the layer, its hot-path methods, what it is)
GUARDS = (
    ("RS303", frozenset({"recorder"}), frozenset({"record"}), "flight recorder"),
    ("RS305", frozenset({"inband"}),
     frozenset({"record_hop", "record_drop", "record_queue_drop", "record_delivery"}),
     "in-band layer"),
    ("RS306", frozenset({"control"}), frozenset({"record_send", "record_retx", "record_srp"}),
     "control accounting"),
)
EXITS = (ast.Return, ast.Continue, ast.Break, ast.Raise)


def _none_test(test, operator):
    """``x`` of ``x is None`` (``operator`` ast.Is) or ``x is not None`` (ast.IsNot)."""
    if (
        isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
        and len(test.ops) == 1 and isinstance(test.ops[0], operator)
        and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None
    ):
        return {test.left.id}
    return set()


def _proved(test):
    """Names an if-test proves not None: ``x``, ``x is not None``, and-chains."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return set().union(*map(_proved, test.values))
    return {test.id} if isinstance(test, ast.Name) else _none_test(test, ast.IsNot)


def _refuted(test):
    """Names that are None when the test holds: ``x is None``, ``not x``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            and isinstance(test.operand, ast.Name):
        return {test.operand.id}
    return _none_test(test, ast.Is)


def _unguarded(body, loaded, guarded, found):
    """Append a finding for each hook call of ``body`` that no guard covers."""
    guarded = set(guarded)
    for stmt in body:
        if isinstance(stmt, ast.If):
            _unguarded(stmt.body, loaded, guarded | _proved(stmt.test), found)
            _unguarded(stmt.orelse, loaded, guarded, found)
            if stmt.body and isinstance(stmt.body[-1], EXITS):  # if rec is None: return
                guarded |= _refuted(stmt.test)
        elif isinstance(stmt, ast.Assert):
            guarded |= _proved(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)):
            inner = [*stmt.body, *getattr(stmt, "orelse", ()), *getattr(stmt, "finalbody", ())]
            inner += [s for handler in getattr(stmt, "handlers", ()) for s in handler.body]
            _unguarded(inner, loaded, guarded, found)
        elif not isinstance(stmt, FUNCTIONS):  # a nested function is its own scope
            for call in ast.walk(stmt):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                    found += _hook(call, loaded, guarded)


def _hook(call, loaded, guarded):
    receiver = call.func.value
    for rule, attrs, methods, noun in GUARDS:
        if call.func.attr not in methods:
            continue
        if isinstance(receiver, ast.Attribute) and receiver.attr in attrs:
            return [(call.lineno, rule, f"'<owner>.{receiver.attr}.{call.func.attr}(...)' "
                     f"re-loads the {noun} and crashes when it is off")]
        if isinstance(receiver, ast.Name) and receiver.id not in guarded \
                and any((receiver.id, attr) in loaded for attr in attrs):
            return [(call.lineno, rule, f"{noun} local {receiver.id!r} is used without an "
                     "'is not None' guard")]
    return []


def guarded_hooks(module, tree):
    """RS303/305/306: a hook of ``GUARDS`` called through its owner
    (``sim.recorder.record(...)``), or through a local loaded from it that
    no ``is not None`` test, or early exit on ``is None``, guards."""
    if module in IMPLEMENTATION_MODULES:
        return []
    found = []
    for function in (node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)):
        loaded = {
            (target.id, node.value.attr)
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
            for target in node.targets if isinstance(target, ast.Name)
        }
        _unguarded(function.body, loaded, (), found)
    return found


# -- RS401, RS402: two networks in one process share nothing --------------------------

MUTABLE_NODES = {
    ast.List: "list", ast.ListComp: "list", ast.Dict: "dict", ast.DictComp: "dict",
    ast.Set: "set", ast.SetComp: "set",
}
MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict",
})


def _mutable(node):
    """The kind of mutable container an expression builds, or None."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name if name in MUTABLE_FACTORIES else None
    return MUTABLE_NODES.get(type(node))


def shared_state(module, tree):
    """RS401 anywhere: a mutable default argument.  RS402: a module-level
    mutable container in a package a Network is built from, or a
    module-level ``itertools.count`` (an id stream) anywhere in src."""
    found = []
    for function in (node for node in ast.walk(tree) if isinstance(node, SCOPES)):
        for default in [*function.args.defaults, *function.args.kw_defaults]:
            kind = _mutable(default)  # a kw-only parameter without a default is None
            if kind is not None:
                found.append((default.lineno, "RS401",
                              f"{getattr(function, 'name', '<lambda>')}() has a mutable default "
                              f"({kind}), one object shared by every call"))
    for stmt in tree.body if within(module, GLOBAL_STATE_PACKAGES) else ():
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
        else:
            continue
        kind = _mutable(stmt.value)  # an annotation without a value is None
        if isinstance(target, ast.Name) and target.id != "__all__" and kind is not None:
            found.append((stmt.lineno, "RS402",
                          f"module-level {kind} {target.id!r} is process-global mutable state"))
    if within(module, ("repro",)):
        counts = {"itertools.count"} | {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names if alias.name == "count"
        }
        found += [(node.lineno, "RS402", "a module-level itertools.count is one id stream for "
                   "every simulator in the process") for node in _own(tree.body)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) in counts]
    return found


CHECKS = (
    forbidden_calls, id_hash_order, unordered_iteration, peer_writes, series_names,
    guarded_hooks, shared_state,
)


def check(module, tree):
    """Every finding of every check on one module, in line order."""
    return sorted(finding for each in CHECKS for finding in each(module, tree))


# -- the real tree ---------------------------------------------------------------------

#: files that break a rule on purpose: "rule path" -> why
ALLOWED = {
    "RS101 src/repro/sim/engine.py": (
        "perf_counter_ns feeds only the optional event-loop profiler; its values never enter "
        "simulated state or the event queue"
    ),
    "RS101 src/repro/obs/profiler.py": (
        "the profiler measures host wall time; its output is reporting only and in no "
        "fingerprint"
    ),
    "RS201 src/repro/obs/artifact.py": (
        "the one repro.*/1 reader and writer: open() is its purpose, and it runs after a "
        "simulation, never from an event handler"
    ),
}
ALLOWED_MAX = 3


def findings(parsed):
    """``(path, line, rule, message)``: every check over src, and RS401
    over tests and benchmarks as well."""
    for module, (path, tree) in parsed.items():
        if path.startswith("src/"):
            found = check(module, tree)
        elif path.startswith(("tests/", "benchmarks/")):
            found = [f for f in shared_state(module, tree) if f[1] == "RS401"]
        else:
            continue
        yield from ((path, line, rule, message) for line, rule, message in found)


def test_the_tree_keeps_the_discipline():
    found = list(findings(parse()))
    unexpected = [
        f"{path}:{line} {rule} {message}"
        for path, line, rule, message in found
        if f"{rule} {path}" not in ALLOWED
    ]
    assert unexpected == [], "\n".join(["fix the line, or allow the file:", *unexpected])
    matched = {f"{rule} {path}" for path, _, rule, _ in found}
    assert sorted(set(ALLOWED) - matched) == [], "allowed, yet clean: drop the entry"
    assert all(reason.strip() for reason in ALLOWED.values())
    assert len(ALLOWED) <= ALLOWED_MAX, "the allow-list only shrinks"
    assert not [key for key in ALLOWED if key.startswith("RS402")], "no shared state, ever"


def test_a_finding_names_its_file_line_and_rule():
    planted = {
        "repro.net.noise": ("src/repro/net/noise.py", ast.parse(
            "import random\n\ndef jitter(x=[]):\n    return random.random()\n")),
        "tests.test_noise": ("tests/test_noise.py", ast.parse(
            "import time\n\ndef test_x(acc={}):\n    time.sleep(1)\n")),
    }
    assert [f[:3] for f in findings(planted)] == [
        ("src/repro/net/noise.py", 3, "RS401"),
        ("src/repro/net/noise.py", 4, "RS102"),
        ("tests/test_noise.py", 3, "RS401"),
    ]


# -- the substrate does not import its tooling ------------------------------------------

#: the simulated system: what the paper describes
SUBSTRATE = ("sim", "net", "core", "host", "topology")
#: what observes, loads, breaks and checks it (repro.network is where they meet)
TOOLING = ("obs", "traffic", "chaos", "analysis")


def _src(*packages):
    """``(module, path, tree)`` of src/repro, or of these packages and modules of it."""
    names = tuple(f"repro.{package}" for package in packages)
    return [
        (module, path, tree)
        for module, (path, tree) in parse().items()
        if path.startswith("src/") and (not names or within(module, names))
    ]


def _imports(files, bad):
    """``path:line imports name`` of each import that ``bad(name)`` holds
    for, wherever the statement sits (function bodies and
    ``TYPE_CHECKING`` blocks included), a relative one resolved."""
    found = []
    for module, path, tree in files:
        package = module if path.endswith("/__init__.py") else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: resolve against the file's package
                    parent = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join([*parent, base] if base else parent)
                names = [base, *(f"{base}.{name}" for name in names)]  # from repro import obs
            found += [f"{path}:{node.lineno} imports {name}" for name in names if bad(name)]
    return found


def test_substrate_imports_no_tooling():
    files = _src(*SUBSTRATE)
    assert len(files) > 30
    tooling = tuple(f"repro.{tool}" for tool in TOOLING)
    assert _imports(files, lambda name: name.startswith(tooling)) == []


def test_src_imports_only_stdlib_and_repro():
    """``pyproject.toml`` declares no runtime dependency: every import
    under ``src/repro`` -- function bodies included -- is the standard
    library or ``repro`` itself.  networkx is a test oracle."""
    files = _src()
    assert len(files) >= 74
    allowed = sys.stdlib_module_names | {"repro"}
    assert _imports(files, lambda name: name.split(".")[0] not in allowed) == []


def test_importing_every_entry_point_loads_no_third_party_package():
    """The same claim at run time, where a lazy or conditional import
    would show: after importing the library and every CLI -- under ``-S``,
    so with no site-packages to find anything in -- ``sys.modules`` holds
    the standard library and ``repro`` only."""
    program = (
        "import sys\n"
        "import repro.network, repro.chaos.campaign, repro.obs.__main__\n"
        "import repro.traffic.__main__, repro.chaos.__main__\n"
        "names = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(names - sys.stdlib_module_names - {'repro', '__main__'}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", program],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


#: where the simulated system and its scheduling live: what a copied world
#: runs (tests/test_world_copy.py)
CLOSURE_FREE = ("sim", "net", "core", "host", "network", "traffic.engine")


def _closures(tree):
    """(line, what) of each lambda that is not a ``key=`` argument and of
    each ``def`` nested in a ``def``."""
    keys = {
        id(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "key"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda) and id(node) not in keys:
            yield node.lineno, "lambda"
        elif isinstance(node, FUNCTIONS):
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, FUNCTIONS):
                    yield inner.lineno, f"def {inner.name}"


def test_callback_slots_and_queued_events_are_not_closures():
    """A closure copied with its world still acts on the world it was made
    in, so a callback slot or a queued event holds a bound method (plus
    arguments, or a ``functools.partial`` in a slot called directly)."""
    files = _src(*CLOSURE_FREE)
    assert len(files) > 30
    offenders = [
        f"{path}:{lineno} {what}"
        for _, path, tree in files
        for lineno, what in sorted(set(_closures(tree)))
    ]
    assert offenders == []
