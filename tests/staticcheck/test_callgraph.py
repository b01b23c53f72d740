"""The whole-program call graph: resolution edge cases + golden snapshot."""

from repro.staticcheck.dataflow import Project
from repro.staticcheck.dataflow.callgraph import CALLGRAPH_SCHEMA, MAX_LOOKUP_DEPTH

project_of = Project.from_sources


def test_plain_and_imported_calls_resolve():
    project = project_of({
        "pkg.a": "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
        "pkg.b": "from pkg.a import helper\n\ndef user():\n    return helper()\n",
    })
    assert project.callgraph.callees("pkg.a.top") == ("pkg.a.helper",)
    assert project.callgraph.callees("pkg.b.user") == ("pkg.a.helper",)
    assert project.callgraph.callers_of("pkg.a.helper") == ("pkg.a.top", "pkg.b.user")


def test_aliased_imports_resolve():
    project = project_of({
        "pkg.a": "def helper():\n    return 1\n",
        "pkg.b": (
            "from pkg.a import helper as h\n"
            "import pkg.a as mod\n"
            "\n"
            "def via_name():\n"
            "    return h()\n"
            "\n"
            "def via_module():\n"
            "    return mod.helper()\n"
        ),
    })
    assert project.callgraph.callees("pkg.b.via_name") == ("pkg.a.helper",)
    assert project.callgraph.callees("pkg.b.via_module") == ("pkg.a.helper",)


def test_decorated_functions_keep_their_name():
    project = project_of({
        "pkg.a": (
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "@deco\n"
            "def wrapped():\n"
            "    return 1\n"
            "\n"
            "def caller():\n"
            "    return wrapped()\n"
        ),
    })
    assert "pkg.a.wrapped" in project.callgraph.callees("pkg.a.caller")


def test_lambdas_assigned_to_names_are_functions():
    project = project_of({
        "pkg.a": (
            "double = lambda x: x * 2\n"
            "\n"
            "def caller():\n"
            "    return double(3)\n"
        ),
    })
    assert "pkg.a.double" in project.functions
    assert project.callgraph.callees("pkg.a.caller") == ("pkg.a.double",)


def test_module_level_function_alias():
    project = project_of({
        "pkg.a": (
            "def real():\n"
            "    return 1\n"
            "\n"
            "alias = real\n"
            "\n"
            "def caller():\n"
            "    return alias()\n"
        ),
    })
    assert project.callgraph.callees("pkg.a.caller") == ("pkg.a.real",)


def test_methods_resolve_via_self_and_bases():
    project = project_of({
        "pkg.base": (
            "class Base:\n"
            "    def shared(self):\n"
            "        return 1\n"
        ),
        "pkg.sub": (
            "from pkg.base import Base\n"
            "\n"
            "class Sub(Base):\n"
            "    def entry(self):\n"
            "        return self.shared()\n"
        ),
    })
    assert project.callgraph.callees("pkg.sub.Sub.entry") == (
        "pkg.base.Base.shared",)


def test_super_dispatch_resolves_to_base_method():
    project = project_of({
        "pkg.a": (
            "class Base:\n"
            "    def start(self):\n"
            "        return 0\n"
            "\n"
            "class Sub(Base):\n"
            "    def start(self):\n"
            "        return super().start() + 1\n"
        ),
    })
    assert project.callgraph.callees("pkg.a.Sub.start") == ("pkg.a.Base.start",)


def test_annotated_parameter_and_constructor_locals_dispatch():
    project = project_of({
        "pkg.node": (
            "class Node:\n"
            "    def tick(self):\n"
            "        return 1\n"
        ),
        "pkg.use": (
            "from pkg.node import Node\n"
            "\n"
            "def by_annotation(n: Node):\n"
            "    return n.tick()\n"
            "\n"
            "def by_constructor():\n"
            "    n = Node()\n"
            "    return n.tick()\n"
        ),
    })
    assert project.callgraph.callees("pkg.use.by_annotation") == (
        "pkg.node.Node.tick",)
    # a constructor call dispatches no __init__ here, just the method edge
    assert "pkg.node.Node.tick" in project.callgraph.callees(
        "pkg.use.by_constructor")


def test_reexport_hop_through_package_init():
    project = project_of({
        # "pkg.inner" is the package itself (its __init__ re-exports helper)
        "pkg.inner": "from pkg.inner.impl import helper\n",
        "pkg.inner.impl": "def helper():\n    return 1\n",
        "pkg.use": (
            "from pkg.inner import helper\n"
            "\n"
            "def caller():\n"
            "    return helper()\n"
        ),
    })
    assert project.callgraph.callees("pkg.use.caller") == (
        "pkg.inner.impl.helper",)


def test_recursion_does_not_self_edge_and_lookup_depth_is_bounded():
    project = project_of({
        "pkg.a": "def loop(n):\n    return loop(n - 1) if n else 0\n",
    })
    # recursive calls never create a self-edge (reachability would not care,
    # but summaries must not oscillate on it)
    assert project.callgraph.callees("pkg.a.loop") == ()

    # a base-class chain deeper than the lookup bound resolves to nothing
    # instead of walking forever
    depth = MAX_LOOKUP_DEPTH + 3
    lines = ["class C0:", "    def target(self):", "        return 1"]
    for i in range(1, depth + 1):
        lines.append(f"class C{i}(C{i - 1}):")
        lines.append("    pass")
    lines.append(f"class Leaf(C{depth}):")
    lines.append("    def entry(self):")
    lines.append("        return self.target()")
    project = project_of({"pkg.deep": "\n".join(lines) + "\n"})
    assert project.callgraph.callees("pkg.deep.Leaf.entry") == ()


GOLDEN_SOURCES = {
    "net.clockwrap": (
        "import time as _time\n"
        "\n"
        "_clock = _time.monotonic\n"
        "\n"
        "def now():\n"
        "    return _clock()\n"
    ),
    "net.switch": (
        "from net.clockwrap import now\n"
        "\n"
        "class Switch:\n"
        "    def boot(self):\n"
        "        self.t0 = now()\n"
        "        return self.tick()\n"
        "\n"
        "    def tick(self):\n"
        "        return self.t0\n"
    ),
    "net.main": (
        "from net.switch import Switch\n"
        "\n"
        "def run():\n"
        "    sw = Switch()\n"
        "    return sw.boot()\n"
    ),
}

GOLDEN = {
    "schema": CALLGRAPH_SCHEMA,
    "functions": [
        "net.clockwrap.now",
        "net.main.run",
        "net.switch.Switch.boot",
        "net.switch.Switch.tick",
    ],
    "edges": {
        "net.main.run": ["net.switch.Switch.boot"],
        "net.switch.Switch.boot": [
            "net.clockwrap.now",
            "net.switch.Switch.tick",
        ],
    },
}


def test_golden_callgraph_snapshot():
    """The serialized graph for a known fixture package, byte-stable."""
    project = project_of(GOLDEN_SOURCES)
    assert project.to_json() == GOLDEN
    # and a second build from the same sources is identical: the graph
    # itself is a determinism artifact
    again = project_of(GOLDEN_SOURCES)
    assert again.to_json() == project.to_json()


def test_external_alias_resolution():
    """``_clock = time.monotonic`` resolves to the canonical dotted name."""
    import ast

    project = project_of(GOLDEN_SOURCES)
    call = ast.parse("_clock()").body[0].value
    assert project.external_for_dotted("net.clockwrap", call.func) == \
        "time.monotonic"
