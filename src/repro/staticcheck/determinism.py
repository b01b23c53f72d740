"""RS1xx: determinism rules.

The simulator's replayability contract (DESIGN.md, CI determinism job)
is that a run is a pure function of ``(topology, seed, schedule)``: all
time comes from the sim clock (`Simulator.now`), all randomness from
named :class:`repro.sim.rng.RngRegistry` streams, and all iteration that
feeds the event queue or an RNG draw happens in a deterministic order.
These rules catch the ways that contract silently breaks:

* **RS101** -- wall-clock reads (``time.time``, ``datetime.now``,
  ``time.monotonic``, ``perf_counter`` ...).  One of these feeding a
  timeout or a metric turns byte-for-byte replay into flake.
* **RS102** -- the process-global ``random`` stream or an unseeded
  ``random.Random()``.  Global draws entangle every component's
  sequence; the fix is a named registry stream.
* **RS103** -- OS entropy (``os.urandom``, ``uuid.uuid4``, ``secrets``,
  ``random.SystemRandom``): irreproducible by construction.
* **RS104** -- ordering by ``id()`` or ``hash()``: both vary across
  processes (``PYTHONHASHSEED``), so any order they induce does too.
* **RS105** -- iterating a ``set``/``frozenset``/``dict.keys()`` result
  and, inside the loop, scheduling events or drawing randomness.  Set
  order is hash order; sorting first restores determinism.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.staticcheck.framework import (
    Finding,
    ImportMap,
    ParsedModule,
    Pass,
    Rule,
    function_scopes,
)

#: canonical dotted names that read the host's clock
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: canonical dotted names that read OS entropy
OS_ENTROPY_CALLS = frozenset({
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
})

#: method names whose call order is observable in the replay contract:
#: event scheduling (Simulator / TaskScheduler) and packet emission
SCHEDULE_SINKS = frozenset({
    "at", "after", "call_soon", "run_soon", "every",
    "send", "send_packet", "transmit", "emit", "inject", "arm",
})

#: RNG draw methods: consuming a stream in unordered-iteration order
#: perturbs every later draw from the same stream
RNG_DRAW_SINKS = frozenset({
    "choice", "choices", "shuffle", "sample", "random", "randint",
    "randrange", "uniform", "gauss", "expovariate",
})


class DeterminismPass(Pass):
    name = "determinism"
    rules = (
        Rule(
            id="RS101",
            title="wall-clock read",
            invariant="simulated behavior is a function of (topology, seed, schedule) only",
            paper="§6.2 (timeouts are protocol constants, not host time)",
            hint="use the sim clock (Simulator.now / sim.after) instead of host time",
        ),
        Rule(
            id="RS102",
            title="global or unseeded random stream",
            invariant="every random draw comes from a named, seeded stream",
            paper="DESIGN.md determinism contract",
            hint="draw from a named sim.rng.RngRegistry stream (rng.stream('component'))",
        ),
        Rule(
            id="RS103",
            title="OS entropy source",
            invariant="runs are reproducible from the seed alone",
            paper="DESIGN.md determinism contract",
            hint="derive ids/nonces from an RngRegistry stream or a counter",
        ),
        Rule(
            id="RS104",
            title="ordering by id() or hash()",
            invariant="orderings are stable across processes and hash seeds",
            paper="§6.6.1 (UID-based total orders)",
            hint="order by a stable field (uid, name, port number), never id()/hash()",
        ),
        Rule(
            id="RS105",
            title="unordered iteration feeds the schedule or an RNG",
            invariant="event and draw order never depends on set/hash iteration order",
            paper="§6.2 (deterministic timer/packet order)",
            hint="iterate sorted(...) over the set, or keep a list/ordered dict",
        ),
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, imports, node)
        for scope in function_scopes(module.tree):
            yield from self._check_unordered_iteration(module, scope)

    # -- RS101/RS102/RS103/RS104 ---------------------------------------------------

    def _check_call(self, module: ParsedModule, imports: ImportMap,
                    node: ast.Call) -> Iterator[Finding]:
        resolved = imports.resolve(node.func)
        if resolved in WALL_CLOCK_CALLS:
            yield self.finding(
                "RS101", module, node,
                f"wall-clock read {resolved}() can leak host time into simulated behavior",
            )
        elif resolved in OS_ENTROPY_CALLS:
            yield self.finding(
                "RS103", module, node,
                f"{resolved}() draws OS entropy and can never replay",
            )
        elif resolved is not None and resolved.startswith("secrets."):
            yield self.finding(
                "RS103", module, node,
                f"{resolved}() draws OS entropy and can never replay",
            )
        elif resolved == "random.Random":
            if not node.args and not node.keywords:
                yield self.finding(
                    "RS102", module, node,
                    "random.Random() with no seed falls back to OS entropy",
                )
        elif resolved is not None and resolved.startswith("random.") and resolved != "random.seed":
            # any other function of the random *module* is the global stream
            yield self.finding(
                "RS102", module, node,
                f"{resolved}() draws from the process-global random stream",
            )
        elif resolved == "random.seed":
            yield self.finding(
                "RS102", module, node,
                "random.seed() mutates the process-global stream other code shares",
            )
        yield from self._check_sort_key(module, node)

    def _check_sort_key(self, module: ParsedModule,
                        node: ast.Call) -> Iterator[Finding]:
        is_order_call = (
            (isinstance(node.func, ast.Name) and node.func.id in ("sorted", "min", "max"))
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        )
        if not is_order_call:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            bad = self._id_hash_key(keyword.value)
            if bad is not None:
                yield self.finding(
                    "RS104", module, keyword.value,
                    f"ordering by {bad}() varies across processes and hash seeds",
                )

    @staticmethod
    def _id_hash_key(key: ast.AST) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda):
            for sub in ast.walk(key.body):
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("id", "hash")):
                    return sub.func.id
        return None

    # -- RS105 -----------------------------------------------------------------------

    def _check_unordered_iteration(self, module: ParsedModule,
                                   scope: ast.AST) -> Iterator[Finding]:
        set_names = self._set_typed_names(scope)
        body = scope.body if isinstance(
            scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
        for stmt in body:
            for loop in self._walk_own(stmt):
                if isinstance(loop, (ast.For, ast.AsyncFor)):
                    if not self._is_set_expr(loop.iter, set_names):
                        continue
                    sink = self._order_sensitive_sink(loop.body)
                    if sink is not None:
                        yield self.finding(
                            "RS105", module, loop,
                            f"iterating an unordered set/dict-view while calling "
                            f".{sink}() makes {('schedule' if sink in SCHEDULE_SINKS else 'draw')} "
                            f"order depend on hash order",
                        )
                elif isinstance(loop, ast.Call):
                    # rng.choice([p for p in some_set]): the sink consumes a
                    # sequence whose order is hash order
                    yield from self._check_sink_args(module, loop, set_names)

    def _check_sink_args(self, module: ParsedModule, call: ast.Call,
                         set_names: Set[str]) -> Iterator[Finding]:
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in SCHEDULE_SINKS | RNG_DRAW_SINKS):
            return
        for arg in list(call.args) + [k.value for k in call.keywords]:
            for node in ast.walk(arg):
                if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    gen = node.generators[0]
                    if self._is_set_expr(gen.iter, set_names):
                        yield self.finding(
                            "RS105", module, node,
                            f".{call.func.attr}() consumes a comprehension over an "
                            f"unordered set/dict-view; its order is hash order",
                        )
                elif self._is_set_expr(node, set_names) and node is arg:
                    yield self.finding(
                        "RS105", module, node,
                        f".{call.func.attr}() consumes a set/dict-view directly; "
                        f"its order is hash order",
                    )

    @staticmethod
    def _walk_own(stmt: ast.AST) -> Iterator[ast.AST]:
        """Walk a statement without descending into nested functions."""
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield from DeterminismPass._walk_own(child)

    def _set_typed_names(self, scope: ast.AST) -> Set[str]:
        """Names bound (flow-insensitively) to set-typed values in scope."""
        names: Set[str] = set()
        body = getattr(scope, "body", [])
        for stmt in body:
            for node in self._walk_own(stmt):
                if isinstance(node, ast.Assign) and self._is_set_expr(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif (isinstance(node, ast.AnnAssign) and node.value is not None
                        and isinstance(node.target, ast.Name)
                        and self._is_set_expr(node.value, names)):
                    names.add(node.target.id)
        return names

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    @staticmethod
    def _order_sensitive_sink(body: List[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in DeterminismPass._walk_own(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in SCHEDULE_SINKS | RNG_DRAW_SINKS):
                    return node.func.attr
        return None
