"""RS2xx: event-handler purity rules.

Everything in the hot-path packages runs inside the discrete-event loop:
a method on a :class:`Switch`, :class:`Autopilot`, or link unit *is* an
event handler (it is only ever entered from ``Simulator.run``).  Two
disciplines keep that loop honest:

* **RS201/RS202 -- no blocking I/O, no prints.**  A handler that opens a
  file, talks to a socket, or sleeps stalls simulated time against wall
  time; a stray ``print`` corrupts CLI/JSON output and costs formatting
  on the hot path.  CLI entry points (``__main__``), ``repro.analysis``
  and ``repro.staticcheck`` are exempt -- presenting results is their
  job (the measurement rigs and comparators, which print too, live under
  ``benchmarks/rigs/``, outside the scanned tree).  Artifact serializers
  that must touch the filesystem are grandfathered explicitly in the
  baseline file, each with a justification.
* **RS203 -- no cross-component writes.**  The paper's switches share no
  memory; coordination is packets on links (§4, §6.6).  A method that
  assigns into another component object (a parameter named/typed as a
  Switch/Host/Autopilot peer) bypasses the channel, the flight recorder,
  and flow control all at once.  Send a message instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.staticcheck.framework import (
    Finding,
    ImportMap,
    ParsedModule,
    Pass,
    Rule,
    annotation_name,
)

#: packages whose code runs inside the event loop
HOT_PACKAGES = (
    "repro.net",
    "repro.core",
    "repro.sim",
    "repro.host",
    "repro.obs",
    "repro.topology",
    "repro.chaos",
)

#: CLI / analysis / presentation packages: I/O and print are their job
EXEMPT_PACKAGES = (
    "repro.analysis",
    "repro.staticcheck",
)

#: canonical dotted prefixes that block or touch the outside world
BLOCKING_PREFIXES = (
    "socket.",
    "subprocess.",
    "urllib.",
    "http.",
    "requests.",
)

BLOCKING_CALLS = frozenset({
    "open",
    "input",
    "breakpoint",
    "time.sleep",
    "os.system",
    "os.popen",
    "socket.socket",
    "subprocess.run",
    "subprocess.Popen",
    "subprocess.check_output",
    "subprocess.check_call",
})

#: attribute calls that are file I/O regardless of receiver type
BLOCKING_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: parameter names that conventionally denote *another* component
PEER_PARAM_NAMES = frozenset({"other", "peer", "neighbor", "neighbour", "remote"})

#: annotations that denote a component object
COMPONENT_TYPES = frozenset({
    "Switch", "Host", "Autopilot", "LinkUnit", "SwitchPort", "HostInterface",
})

#: component packages where RS203 applies (sim/obs hold no peer objects)
COMPONENT_PACKAGES = ("repro.net", "repro.core", "repro.host")


class PurityPass(Pass):
    name = "purity"
    rules = (
        Rule(
            id="RS201",
            title="blocking I/O in an event handler",
            invariant="handlers advance simulated time only, never wall time",
            paper="§5.4 (Autopilot tasks run to completion)",
            hint="move I/O to a CLI/analysis module, or baseline a serializer with a justification",
        ),
        Rule(
            id="RS202",
            title="print() on the hot path",
            invariant="simulation output goes through repro.obs, not stdout",
            paper="§6.7 (logging goes to the merged event log)",
            hint="record through repro.obs (metrics/flight recorder) or log from the CLI layer",
        ),
        Rule(
            id="RS203",
            title="cross-component state write",
            invariant="components share no memory; coordination is messages on links",
            paper="§4 / §6.6 (switches coordinate by packets only)",
            hint="send a message via the channel instead of writing the peer's attributes",
        ),
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if not module.in_package(*HOT_PACKAGES):
            return
        if module.is_main or module.in_package(*EXEMPT_PACKAGES):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_io(module, imports, node)
        if module.in_package(*COMPONENT_PACKAGES):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_cross_component(module, node)

    # -- RS201 / RS202 ----------------------------------------------------------------

    def _check_io(self, module: ParsedModule, imports: ImportMap,
                  node: ast.Call) -> Iterator[Finding]:
        resolved = imports.resolve(node.func)
        if resolved == "print":
            yield self.finding(
                "RS202", module, node,
                "print() in a hot-path module writes to stdout from inside the event loop",
            )
            return
        blocking = (
            resolved in BLOCKING_CALLS
            or (resolved is not None and resolved.startswith(BLOCKING_PREFIXES))
        )
        if not blocking and isinstance(node.func, ast.Attribute):
            if node.func.attr in BLOCKING_ATTRS:
                blocking = True
                resolved = f"*.{node.func.attr}"
        if blocking:
            yield self.finding(
                "RS201", module, node,
                f"{resolved}() blocks the event loop / touches the outside world",
            )

    # -- RS203 -------------------------------------------------------------------------

    def _check_cross_component(self, module: ParsedModule,
                               cls: ast.ClassDef) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.startswith("__"):
                continue  # constructors/dunders may wire components together
            peers = self._peer_params(method)
            if not peers:
                continue
            for stmt in ast.walk(method):
                target = self._write_target(stmt)
                if target is None:
                    continue
                root = self._attr_root(target)
                if root in peers:
                    yield self.finding(
                        "RS203", module, stmt,
                        f"{cls.name}.{method.name} writes attributes of peer "
                        f"component {root!r} directly",
                    )

    @staticmethod
    def _peer_params(method: ast.FunctionDef) -> Set[str]:
        peers: Set[str] = set()
        args = list(method.args.posonlyargs) + list(method.args.args) + \
            list(method.args.kwonlyargs)
        for index, arg in enumerate(args):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            type_name = annotation_name(arg.annotation)
            if arg.arg in PEER_PARAM_NAMES or type_name in COMPONENT_TYPES:
                peers.add(arg.arg)
        return peers

    @staticmethod
    def _write_target(stmt: ast.AST) -> Optional[ast.Attribute]:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute):
                    return target
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt.target, ast.Attribute):
                return stmt.target
        return None

    @staticmethod
    def _attr_root(node: ast.Attribute) -> Optional[str]:
        value: ast.AST = node
        while isinstance(value, ast.Attribute):
            value = value.value
        if isinstance(value, ast.Name):
            return value.id
        return None
