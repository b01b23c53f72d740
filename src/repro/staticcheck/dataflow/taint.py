"""RS50x: interprocedural nondeterminism taint.

RS1xx flags a wall-clock *call site*; it cannot see ``time.monotonic()``
laundered through two helpers before it lands in ``sim.at(...)``.  This
pass tracks where nondeterministic values *flow*:

* **sources** -- wall-clock reads, OS entropy, the process-global
  ``random`` stream, and ``id()``/``hash()`` values (hash order varies
  per process), including module-level callable aliases
  (``_clock = time.monotonic``) that hide the dotted name from RS101;
* **propagation** -- through local assignments, returns, call arguments
  (caller arg taint becomes callee parameter taint), and attribute
  stores (``self.t0 = ...`` taints ``Class.t0`` for every reader);
* **sinks** -- event scheduling and packet emission
  (:data:`~repro.staticcheck.determinism.SCHEDULE_SINKS`), and RNG
  seeding (``random.seed``, any ``.seed(...)``, any ``seed=`` keyword).

Summaries are computed by a bounded fixpoint over the project call
graph (:data:`MAX_ROUNDS` propagation rounds, so taint crossing more
call layers than that is dropped -- deliberately bounded rather than
unbounded recursion).  Findings are only emitted when the flow crosses
a function boundary: same-function flows are RS1xx's job, and reporting
them twice would double every existing baseline entry.

Rules:

* **RS501** -- a wall-clock / OS-entropy / global-random value reaches a
  schedule or packet-emission sink through at least one call boundary.
* **RS502** -- such a value (or a hash-order value) seeds an RNG.
* **RS503** -- an ``id()``/``hash()``-derived value reaches a schedule
  or emission sink: event order would depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.staticcheck.dataflow.callgraph import FunctionInfo, Project, iter_calls
from repro.staticcheck.determinism import (
    OS_ENTROPY_CALLS,
    SCHEDULE_SINKS,
    WALL_CLOCK_CALLS,
)
from repro.staticcheck.framework import Finding, Pass, Rule

#: propagation rounds over the call graph: the bounded call-depth of
#: every function summary
MAX_ROUNDS = 10

#: taint kinds that make scheduling nondeterministic across runs
NONDET_KINDS = ("global-random", "os-entropy", "wall-clock")

#: taint kind for id()/hash() values: stable within a run, different
#: across processes
HASH_KIND = "hash-order"

#: a taint environment: kind -> (source call, function it happened in);
#: merged by lexicographic min so reports are deterministic
Taint = Dict[str, Tuple[str, str]]


def classify_source(canonical: Optional[str]) -> Optional[str]:
    """Taint kind introduced by calling this canonical dotted name."""
    if canonical is None:
        return None
    if canonical in WALL_CLOCK_CALLS:
        return "wall-clock"
    if canonical in OS_ENTROPY_CALLS or canonical.startswith("secrets."):
        return "os-entropy"
    if canonical in ("id", "hash"):
        return HASH_KIND
    if canonical.startswith("random.") and canonical not in (
            "random.seed", "random.Random"):
        return "global-random"
    return None


def merge(into: Taint, add: Taint) -> bool:
    """Union ``add`` into ``into``; True when anything changed."""
    changed = False
    for kind, origin in add.items():
        have = into.get(kind)
        if have is None or origin < have:
            into[kind] = origin
            changed = True
    return changed


class _FunctionAnalysis:
    """One flow-insensitive pass over one function's body."""

    def __init__(self, engine: "_TaintEngine", info: FunctionInfo) -> None:
        self.engine = engine
        self.info = info
        self.env: Dict[str, Taint] = {}
        for param in info.param_names():
            taint = engine.param_taint.get((info.qname, param))
            if taint:
                self.env[param] = dict(taint)

    def run(self) -> None:
        # two sweeps so a name defined later in the body (loop carried,
        # helper-below-use) still feeds earlier reads
        for _ in range(2):
            for stmt in self.info.body:
                self._stmt(stmt)

    # -- statements ------------------------------------------------------------------

    def _stmt(self, stmt: ast.AST) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                taint = self.eval(node.value)
                for target in node.targets:
                    self._bind(target, taint)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind(node.target, self.eval(node.value))
            elif isinstance(node, ast.AugAssign):
                self._bind(node.target, self.eval(node.value))
            elif isinstance(node, ast.Return) and node.value is not None:
                self.engine.note_return(self.info.qname, self.eval(node.value))
            elif isinstance(node, ast.Call):
                self._propagate_args(node)

    def _bind(self, target: ast.AST, taint: Taint) -> None:
        if not taint:
            return
        if isinstance(target, ast.Name):
            merge(self.env.setdefault(target.id, {}), taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id in ("self", "cls") and self.info.cls is not None:
            key = (f"{self.info.module}.{self.info.cls}", target.attr)
            self.engine.note_attr(key, taint)

    def _propagate_args(self, call: ast.Call) -> None:
        """Caller argument taint becomes callee parameter taint."""
        callee = self.engine.project.resolve_call(self.info, call)
        if callee is None:
            return
        callee_info = self.engine.project.functions.get(callee)
        if callee_info is None:
            return
        params = callee_info.param_names()
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index >= len(params):
                break
            taint = self.eval(arg)
            if taint:
                self.engine.note_param(callee, params[index], taint)
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                taint = self.eval(keyword.value)
                if taint:
                    self.engine.note_param(callee, keyword.arg, taint)

    # -- expressions -----------------------------------------------------------------

    def eval(self, node: Optional[ast.AST]) -> Taint:
        if node is None or isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls") \
                    and self.info.cls is not None:
                key = (f"{self.info.module}.{self.info.cls}", node.attr)
                return dict(self.engine.attr_taint.get(key, {}))
            return self.eval(node.value)
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return {}
        # generic expression: the union of its child expressions
        out: Taint = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                merge(out, self.eval(
                    child.value if isinstance(child, ast.keyword) else child))
        return out

    def _eval_call(self, call: ast.Call) -> Taint:
        canonical = self.engine.project.external_for_dotted(
            self.info.module, call.func)
        kind = classify_source(canonical)
        if kind is not None:
            return {kind: (f"{canonical}()", self.info.qname)}
        callee = self.engine.project.resolve_call(self.info, call)
        if callee is not None:
            return dict(self.engine.returns.get(callee, {}))
        # unresolved call: conservatively pass its inputs through
        # (int(tainted), str(tainted), tainted.total_seconds(), ...)
        out: Taint = {}
        if isinstance(call.func, ast.Attribute):
            merge(out, self.eval(call.func.value))
        for arg in call.args:
            merge(out, self.eval(arg))
        for keyword in call.keywords:
            merge(out, self.eval(keyword.value))
        return out


class _TaintEngine:
    """The project-wide fixpoint: summaries, attr taint, param taint."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.returns: Dict[str, Taint] = {}
        self.attr_taint: Dict[Tuple[str, str], Taint] = {}
        self.param_taint: Dict[Tuple[str, str], Taint] = {}
        self.changed = False

    def note_return(self, qname: str, taint: Taint) -> None:
        if taint and merge(self.returns.setdefault(qname, {}), taint):
            self.changed = True

    def note_attr(self, key: Tuple[str, str], taint: Taint) -> None:
        if taint and merge(self.attr_taint.setdefault(key, {}), taint):
            self.changed = True

    def note_param(self, qname: str, param: str, taint: Taint) -> None:
        if taint and merge(self.param_taint.setdefault((qname, param), {}), taint):
            self.changed = True

    def solve(self) -> None:
        for _ in range(MAX_ROUNDS):
            self.changed = False
            for info in self.project.iter_functions():
                _FunctionAnalysis(self, info).run()
            if not self.changed:
                break


class TaintPass(Pass):
    name = "taint"
    rules = (
        Rule(
            id="RS501",
            title="nondeterministic value flows into the event schedule",
            invariant="no wall-clock/entropy value reaches scheduling or "
                      "packet emission, even through helper calls",
            paper="§6.2 (timeouts are protocol constants) / §6.6",
            hint="thread the sim clock or a seeded stream through the call "
                 "chain instead of sampling host state",
        ),
        Rule(
            id="RS502",
            title="nondeterministic value seeds an RNG",
            invariant="every RNG seed derives from the run's master seed",
            paper="DESIGN.md determinism contract",
            hint="derive seeds via RngRegistry.child_seed/fork, never from "
                 "host time or entropy",
        ),
        Rule(
            id="RS503",
            title="id()/hash() value flows into the event schedule",
            invariant="event order never depends on PYTHONHASHSEED",
            paper="§6.6.1 (UID-based total orders)",
            hint="key on a stable field (uid, name, port number) instead of "
                 "id()/hash()",
        ),
    )

    def run(self, project: Project) -> Iterator[Finding]:
        engine = _TaintEngine(project)
        engine.solve()
        seen = set()
        for info in project.iter_functions():
            analysis = _FunctionAnalysis(engine, info)
            analysis.run()  # rebuild the local env with settled summaries
            for call in iter_calls(info.node):
                for finding in self._check_sinks(engine, analysis, info, call):
                    key = (finding.rule, finding.path, finding.line,
                           finding.col, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding

    # -- sink checks ----------------------------------------------------------------

    def _check_sinks(self, engine: _TaintEngine, analysis: _FunctionAnalysis,
                     info: FunctionInfo, call: ast.Call) -> Iterable[Finding]:
        is_schedule = (isinstance(call.func, ast.Attribute)
                       and call.func.attr in SCHEDULE_SINKS)
        canonical = engine.project.external_for_dotted(info.module, call.func)
        is_seed = (
            canonical == "random.seed"
            or (isinstance(call.func, ast.Attribute) and call.func.attr == "seed")
        )
        if is_schedule or is_seed:
            taint: Taint = {}
            for arg in call.args:
                merge(taint, analysis.eval(arg))
            for keyword in call.keywords:
                merge(taint, analysis.eval(keyword.value))
            sink_name = call.func.attr if isinstance(call.func, ast.Attribute) \
                else canonical or "?"
            yield from self._emit(info, call, taint, sink_name,
                                  seed_sink=is_seed, schedule_sink=is_schedule)
        # any call taking a tainted seed= keyword seeds an RNG downstream
        for keyword in call.keywords:
            if keyword.arg == "seed" and not is_seed:
                taint = analysis.eval(keyword.value)
                yield from self._emit(info, call, taint, "seed=",
                                      seed_sink=True, schedule_sink=False)

    def _emit(self, info: FunctionInfo, call: ast.Call, taint: Taint,
              sink_name: str, seed_sink: bool, schedule_sink: bool,
              ) -> Iterable[Finding]:
        for kind in sorted(taint):
            origin_call, origin_fn = taint[kind]
            if origin_fn == info.qname:
                continue  # same-function flows are RS1xx territory
            if seed_sink:
                rule = "RS502"
            elif kind == HASH_KIND:
                rule = "RS503"
            else:
                rule = "RS501"
            if not seed_sink and not schedule_sink:
                continue
            what = "RNG seed" if seed_sink else "event-schedule/emission sink"
            yield self.finding(
                rule, info, call,
                f"{kind} value from {origin_call} (in {origin_fn}) reaches "
                f"{what} .{sink_name}() in {info.qname}",
            )
