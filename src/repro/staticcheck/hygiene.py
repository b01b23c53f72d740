"""RS4xx: mutable-state hygiene rules.

Two classic Python foot-guns matter more here than usual, because the
chaos campaigns construct thousands of :class:`Network` instances per
process and expect them to be independent:

* **RS401** -- a mutable default argument (``def f(x=[])``) is evaluated
  once and shared by every call and every instance; state leaks from one
  simulated network into the next and replays diverge.  Applies to the
  whole tree -- there is no good reason for it anywhere.
* **RS402** -- module-level mutable containers in the simulator's
  packages (everything a :class:`Network` is built from and run by) are
  process-global state: two networks in one process would share them, and
  a chaos campaign's runs would stop being independent.  Constants belong
  in tuples or ``frozenset``s; per-run state belongs on a component
  object.  It sees containers only: an ``itertools.count`` stream is
  just as shared and invisible to it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.framework import Finding, ParsedModule, Pass, Rule, mutable_kind

#: packages and modules where module-level mutable state breaks run
#: independence (obs, chaos and staticcheck keep their constant tables)
GLOBAL_STATE_PACKAGES = (
    "repro.net", "repro.sim", "repro.core", "repro.host", "repro.topology",
    "repro.traffic", "repro.analysis", "repro.network", "repro.scenario",
    "repro.types", "repro.constants",
)


class HygienePass(Pass):
    name = "hygiene"
    rules = (
        Rule(
            id="RS401",
            title="mutable default argument",
            invariant="call sites never share hidden state through a default",
            paper="chaos campaign run-independence (DESIGN.md)",
            hint="default to None and create the container in the body, "
                 "or use dataclasses.field(default_factory=...)",
        ),
        Rule(
            id="RS402",
            title="module-level mutable state in a simulator package",
            invariant="two Networks in one process share nothing",
            paper="chaos campaign run-independence (DESIGN.md)",
            hint="use a tuple/frozenset for constants, or hang per-run state "
                 "off the component object",
        ),
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from self._check_defaults(module, node)
        if module.in_package(*GLOBAL_STATE_PACKAGES):
            yield from self._check_module_globals(module)

    def _check_defaults(self, module: ParsedModule,
                        func: ast.AST) -> Iterator[Finding]:
        args = func.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        label = getattr(func, "name", "<lambda>")
        for default in defaults:
            kind = mutable_kind(default)
            if kind is not None:
                yield self.finding(
                    "RS401", module, default,
                    f"{label}() has a mutable default ({kind}); it is created once "
                    f"and shared by every call",
                )

    def _check_module_globals(self, module: ParsedModule) -> Iterator[Finding]:
        for stmt in module.tree.body:
            value: Optional[ast.AST] = None
            target_name: Optional[str] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target_name = stmt.targets[0].id
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                target_name = stmt.target.id
                value = stmt.value
            if value is None or target_name is None:
                continue
            if target_name == "__all__":
                continue  # module metadata, mutated by no one
            kind = mutable_kind(value)
            if kind is not None:
                yield self.finding(
                    "RS402", module, stmt,
                    f"module-level {kind} {target_name!r} is process-global "
                    f"mutable state",
                )
