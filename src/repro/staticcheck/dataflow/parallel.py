"""RS6xx: module-level mutable state that runs would share.

A chaos campaign builds thousands of :class:`Network` instances in one
process and expects them to be independent; RS402 checks that per file
for the hot-path packages, this pass checks it for the whole program.
Over the call graph it computes the module-level mutable objects
transitively **written** from

* ``repro.chaos`` campaign entry points (every function and method the
  chaos package defines), and
* event handlers (every method of a class in the hot component
  packages: ``repro.net`` / ``repro.core`` / ``repro.sim`` /
  ``repro.host``).

Read-only module state is shared harmlessly and is not tracked.

* **RS601** -- module-level mutable state written from code reachable
  from a chaos campaign entry point: one run would leak into the next.
* **RS602** -- module-level mutable state written from code reachable
  from an event handler: two Networks in one process would couple.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from repro.staticcheck.dataflow.callgraph import FunctionInfo, Project, iter_calls
from repro.staticcheck.framework import Finding, Pass, Rule, mutable_kind

#: package whose functions/methods are campaign entry points
CHAOS_PACKAGE = "repro.chaos"

#: packages whose class methods run inside the event loop
HANDLER_PACKAGES = ("repro.net", "repro.core", "repro.sim", "repro.host")

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "extendleft", "rotate",
})

#: bound on reachability propagation rounds over the call graph
MAX_ROUNDS = 30


@dataclass(frozen=True)
class GlobalVar:
    """One module-level mutable binding."""

    qname: str  # "repro.obs.registry.DEFAULT"
    module: str
    name: str
    kind: str  # "dict", "list", ...
    relpath: str
    line: int


def _in_package(module: str, *packages: str) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def collect_globals(project: Project) -> Dict[str, GlobalVar]:
    """Every module-level mutable container binding in the project."""
    out: Dict[str, GlobalVar] = {}
    for module in sorted(project.modules):
        parsed = project.modules[module]
        for stmt in parsed.tree.body:
            target: Optional[ast.Name] = None
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                target, value = stmt.target, stmt.value
            if target is None or value is None or target.id == "__all__":
                continue
            kind = mutable_kind(value)
            if kind is None:
                continue
            var = GlobalVar(
                qname=f"{module}.{target.id}",
                module=module,
                name=target.id,
                kind=kind,
                relpath=parsed.relpath,
                line=stmt.lineno,
            )
            out[var.qname] = var
    return out


#: write map: global qname -> writer qname (lexicographic min)
Writes = Dict[str, str]


class _WriteCollector:
    """Direct global writes of one function body."""

    def __init__(self, project: Project, globals_: Dict[str, GlobalVar],
                 info: FunctionInfo) -> None:
        self.project = project
        self.globals = globals_
        self.info = info
        self.declared_global: Set[str] = set()
        self.local_names: Set[str] = set()
        self.writes: Writes = {}
        self._scan_scope()

    def _scan_scope(self) -> None:
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Global):
                self.declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.local_names.add(node.id)
            elif isinstance(node, ast.arg):
                self.local_names.add(node.arg)
        self.local_names -= self.declared_global

    def _module_global(self, name: str) -> Optional[str]:
        if name in self.local_names:
            return None
        qname = f"{self.info.module}.{name}"
        return qname if qname in self.globals else None

    def _foreign_global(self, node: ast.AST) -> Optional[str]:
        """``othermod.NAME`` resolved through imports to a known global."""
        if not isinstance(node, ast.Attribute):
            return None
        dotted = self.project.external_for_dotted(self.info.module, node)
        if dotted is not None and dotted in self.globals:
            return dotted
        return None

    def note(self, qname: Optional[str]) -> None:
        if qname is not None:
            self.writes[qname] = self.info.qname

    def collect(self) -> Writes:
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node.id in self.declared_global:
                self.note(self._module_global_declared(node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                self.note(self._foreign_global(node))
            elif isinstance(node, (ast.Subscript, ast.Delete)):
                self._subscript(node)
        for call in iter_calls(self.info.node):
            self._mutator_call(call)
        return self.writes

    def _module_global_declared(self, name: str) -> Optional[str]:
        qname = f"{self.info.module}.{name}"
        return qname if qname in self.globals else None

    def _subscript(self, node: ast.AST) -> None:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            targets.append(node.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    targets.append(target.value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.note(self._module_global(target.id))
            else:
                self.note(self._foreign_global(target))

    def _mutator_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return
        receiver = func.value
        if isinstance(receiver, ast.Name):
            self.note(self._module_global(receiver.id))
        else:
            self.note(self._foreign_global(receiver))


class ParallelReadinessPass(Pass):
    name = "parallel-readiness"
    rules = (
        Rule(
            id="RS601",
            title="chaos campaign reaches writable module-level state",
            invariant="campaign runs are shard-independent: a process pool "
                      "may fork them without sharing writes",
            paper="§6.6 run independence / ROADMAP item 4 (chaos sharding)",
            hint="move the state onto the campaign/Network object, or "
                 "baseline it with a justification until the sharding PR",
        ),
        Rule(
            id="RS602",
            title="event handler reaches writable module-level state",
            invariant="two Networks in one process share nothing",
            paper="§6.6 (switches share no memory)",
            hint="hang per-run state off a component object; module globals "
                 "couple every simulator in the process",
        ),
    )

    def run(self, project: Project) -> Iterator[Finding]:
        globals_ = collect_globals(project)
        reach: Dict[str, Writes] = {}
        for info in project.iter_functions():
            reach[info.qname] = _WriteCollector(project, globals_, info).collect()

        for _ in range(MAX_ROUNDS):
            changed = False
            for qname in sorted(reach):
                mine = reach[qname]
                for callee in project.callgraph.callees(qname):
                    for var, writer in reach.get(callee, {}).items():
                        if var not in mine or writer < mine[var]:
                            mine[var] = writer
                            changed = True
            if not changed:
                break

        #: written global -> role -> its first (functions come sorted, so
        #: lexicographically least) entry point that reaches the write
        entries: Dict[str, Dict[str, str]] = {}
        writers: Dict[str, str] = {}
        for info in project.iter_functions():
            if _in_package(info.module, CHAOS_PACKAGE):
                role = "chaos"
            elif info.cls is not None and _in_package(info.module, *HANDLER_PACKAGES):
                role = "handler"
            else:
                continue
            for var, writer in reach[info.qname].items():
                entries.setdefault(var, {}).setdefault(role, info.qname)
                writers[var] = min(writer, writers.get(var, writer))

        for var_qname in sorted(entries):
            var = globals_[var_qname]
            writer = writers[var_qname]
            roles = entries[var_qname]
            if "chaos" in roles:
                yield self.finding(
                    "RS601", var, var.line,
                    f"module-level {var.kind} {var.qname!r} is written by "
                    f"{writer}, reachable from chaos entry point "
                    f"{roles['chaos']}: campaign shards would "
                    f"share it",
                )
            if "handler" in roles:
                yield self.finding(
                    "RS602", var, var.line,
                    f"module-level {var.kind} {var.qname!r} is written by "
                    f"{writer}, reachable from event handler "
                    f"{roles['handler']}: simulators in one "
                    f"process would couple",
                )
