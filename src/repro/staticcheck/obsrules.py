"""RS3xx: observability discipline rules.

The telemetry layer (``repro.obs``) promises two things the rest of the
repo leans on: metric identity is *static* (a fixed set of names with
bounded label cardinality, so dashboards and the ``repro.bench/1``
schema stay stable), and a *disabled* instrument costs one attribute
load plus a ``None`` test -- no allocation, no formatting.  These rules
keep call sites inside that contract:

* **RS301** -- metric/collector names passed to the registry must be
  string literals.  A computed name mints unbounded series and breaks
  the exported-document schema.
* **RS302** -- label *values* must not be f-strings / ``%``- or
  ``.format``-built strings.  Labels fan out one series per distinct
  value; formatted strings are how cardinality explodes (nothing caps
  it at run time).
* **RS303** -- flight-recorder hooks must follow the established
  pattern: load the recorder into a local once, test it against
  ``None``, then record.  Calling through ``x.recorder.record(...)``
  either double-loads the attribute on the hot path or, unguarded,
  crashes when the recorder is off.
* **RS304** -- time-series sampler discipline: collectors registered via
  ``add_collector`` must use literal series names (same schema-stability
  argument as RS301), and a collector callback must not ``.append`` to
  anything -- collectors are pure reads sampled every tick; an appending
  callback is an unbounded buffer growing at the sampling rate.  (Ring
  capacities are module constants of ``repro.obs.timeseries``.)
* **RS305** -- in-band telemetry stamps (``record_hop`` and friends on
  ``sim.inband``) must follow the same one-load+None-test pattern as
  RS303.  The stamp sites live on the per-packet hot path in
  ``switch``/``linkunit``/``fifo``/``host``; a chained or unguarded call
  silently regresses the disabled fast path (or crashes when the layer
  is off).
* **RS306** -- control-plane accounting hooks (``record_send`` /
  ``record_retx`` / ``record_srp`` on ``sim.control``) must follow the
  same one-load+None-test pattern.  The hooks sit on every control
  message send in ``autopilot``/``reconfig``/``srp``; an unguarded call
  crashes every network built without ``control=True``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.staticcheck.framework import (
    Finding,
    ParsedModule,
    Pass,
    Rule,
    dotted_name,
    function_scopes,
)

#: registry factory / registration methods whose first argument is a
#: metric name and whose keywords are labels
METRIC_METHODS = frozenset({"counter", "histogram", "collect"})

#: keywords of those methods that are configuration, not labels
NON_LABEL_KWARGS = frozenset({"buckets"})

#: receivers that look like a metrics registry ("self.sim.metrics", "registry")
REGISTRY_HINTS = ("metrics", "registry")

#: modules that implement the instruments themselves (their internals
#: necessarily pass names around as variables)
IMPLEMENTATION_MODULES = frozenset({
    "repro.obs.registry",
    "repro.obs.flight",
    "repro.obs.spans",
    "repro.obs.timeseries",
    "repro.obs.inband",
    "repro.obs.control",
})

#: receivers that look like a time-series sampler
SAMPLER_HINTS = ("sampler",)

#: maximum labels per instrument call: more is a cardinality smell
MAX_LABELS = 4

#: attribute names holding the flight recorder (RS303)
RECORDER_ATTRS = frozenset({"recorder", "flight"})

#: methods RS303 audits on a recorder
RECORDER_METHODS = frozenset({"record"})

#: attribute names holding the in-band telemetry layer (RS305)
INBAND_ATTRS = frozenset({"inband"})

#: hot-path stamp methods RS305 audits on the in-band layer
INBAND_METHODS = frozenset({
    "record_hop",
    "record_drop",
    "record_queue_drop",
    "record_delivery",
})

#: attribute names holding the control-plane accounting layer (RS306)
CONTROL_ATTRS = frozenset({"control"})

#: hot-path hooks RS306 audits on the accounting layer
CONTROL_METHODS = frozenset({"record_send", "record_retx", "record_srp"})


class ObsDisciplinePass(Pass):
    name = "obs-discipline"
    rules = (
        Rule(
            id="RS301",
            title="metric name is not a string literal",
            invariant="the metric namespace is a static, enumerable set",
            paper="§6.7 / repro.bench/1 schema stability",
            hint="pass a literal name and put the variable part in a label",
        ),
        Rule(
            id="RS302",
            title="formatted string as a label value",
            invariant="label cardinality is bounded by the topology, not by data",
            paper="repro.obs registry series identity (ISSUE 1)",
            hint="use the raw value (name, port number, cause enum) as the label",
        ),
        Rule(
            id="RS303",
            title="flight-recorder call bypasses the None-test pattern",
            invariant="a disabled recorder costs one attribute load + None test",
            paper="DESIGN.md flight-recorder disabled path",
            hint="load it once (rec = <owner>.recorder), test 'if rec is not None', then record",
        ),
        Rule(
            id="RS304",
            title="sampler collector breaks the bounded-ring discipline",
            invariant="the series set is static and every sampler buffer is bounded",
            paper="repro.obs.timeseries ring discipline (§6.7)",
            hint="use a literal series name and a read-only collector "
                 "callback (no .append)",
        ),
        Rule(
            id="RS305",
            title="in-band stamp bypasses the None-test pattern",
            invariant="a disabled in-band layer costs one attribute load + None test",
            paper="repro.obs.inband disabled fast path (§6.7 data-plane SLO)",
            hint="load it once (ib = <owner>.inband), test 'if ib is not None', "
                 "then stamp",
        ),
        Rule(
            id="RS306",
            title="control-accounting hook bypasses the None-test pattern",
            invariant="disabled control accounting costs one attribute load + None test",
            paper="repro.obs.control disabled fast path (§6 control-plane cost)",
            hint="load it once (acct = <owner>.control), test 'if acct is not "
                 "None', then record",
        ),
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if module.module in IMPLEMENTATION_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_metric_call(module, node)
                yield from self._check_sampler_call(module, node)
        for scope in function_scopes(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_guarded_calls(
                    module, scope, RECORDER_ATTRS, RECORDER_METHODS,
                    "RS303", "recorder",
                )
                yield from self._check_guarded_calls(
                    module, scope, INBAND_ATTRS, INBAND_METHODS,
                    "RS305", "in-band layer",
                )
                yield from self._check_guarded_calls(
                    module, scope, CONTROL_ATTRS, CONTROL_METHODS,
                    "RS306", "control accounting",
                )

    # -- RS301 / RS302 -----------------------------------------------------------------

    def _check_metric_call(self, module: ParsedModule,
                           node: ast.Call) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in METRIC_METHODS:
            return
        receiver = dotted_name(node.func.value) or ""
        tail = receiver.rsplit(".", 1)[-1]
        if not any(hint in tail for hint in REGISTRY_HINTS):
            return
        if node.args:
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                yield self.finding(
                    "RS301", module, name_arg,
                    f"{receiver}.{node.func.attr}() metric name is computed, "
                    f"not a string literal",
                )
        labels = [k for k in node.keywords
                  if k.arg is not None and k.arg not in NON_LABEL_KWARGS]
        if len(labels) > MAX_LABELS:
            yield self.finding(
                "RS302", module, node,
                f"{len(labels)} labels on one instrument (max {MAX_LABELS}): "
                f"cardinality is a product over label values",
            )
        for keyword in labels:
            if self._is_formatted_string(keyword.value):
                yield self.finding(
                    "RS302", module, keyword.value,
                    f"label {keyword.arg!r} is a formatted string; every distinct "
                    f"value mints a new series",
                )

    @staticmethod
    def _is_formatted_string(node: ast.AST) -> bool:
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
            return any(
                isinstance(side, (ast.Constant, ast.JoinedStr))
                and (not isinstance(side, ast.Constant)
                     or isinstance(side.value, str))
                for side in (node.left, node.right)
            )
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"):
            return True
        return False

    # -- RS304 -------------------------------------------------------------------------

    def _check_sampler_call(self, module: ParsedModule,
                            node: ast.Call) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_collector"):
            return
        receiver = dotted_name(node.func.value) or ""
        tail = receiver.rsplit(".", 1)[-1]
        if not any(hint in tail for hint in SAMPLER_HINTS):
            return
        if node.args:
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                yield self.finding(
                    "RS304", module, name_arg,
                    f"{receiver}.add_collector() series name is computed, "
                    f"not a string literal",
                )
        for value in list(node.args[1:]) + [k.value for k in node.keywords]:
            if not isinstance(value, ast.Lambda):
                continue
            for inner in ast.walk(value.body):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "append"):
                    yield self.finding(
                        "RS304", module, inner,
                        "collector callback calls .append(): collectors are "
                        "read-only samples, not accumulators -- this grows "
                        "without bound at the sampling rate",
                    )

    # -- RS303 / RS305 / RS306 ---------------------------------------------------------

    def _check_guarded_calls(self, module: ParsedModule,
                             func: ast.FunctionDef,
                             attrs: frozenset, methods: frozenset,
                             rule_id: str, noun: str) -> Iterator[Finding]:
        instrument_locals = self._instrument_locals(func, attrs)
        yield from self._scan_guarded(
            module, func.body, instrument_locals, set(),
            attrs, methods, rule_id, noun,
        )

    @staticmethod
    def _instrument_locals(func: ast.FunctionDef, attrs: frozenset) -> Set[str]:
        """Local names assigned from one of ``attrs`` attribute chains."""
        names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                if node.value.attr in attrs:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    def _scan_guarded(self, module: ParsedModule, body: List[ast.stmt],
                      instrument_locals: Set[str], guarded: Set[str],
                      attrs: frozenset, methods: frozenset,
                      rule_id: str, noun: str) -> Iterator[Finding]:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, ast.If):
                newly = self._names_guarded_by(stmt.test)
                yield from self._scan_guarded(
                    module, stmt.body, instrument_locals, guarded | newly,
                    attrs, methods, rule_id, noun)
                yield from self._scan_guarded(
                    module, stmt.orelse, instrument_locals, guarded,
                    attrs, methods, rule_id, noun)
                # 'if rec is None: return' guards the rest of this body
                if stmt.body and isinstance(
                        stmt.body[-1], (ast.Return, ast.Continue, ast.Break, ast.Raise)):
                    guarded |= self._names_refuted_by(stmt.test)
                continue
            if isinstance(stmt, ast.Assert):
                guarded |= self._names_guarded_by(stmt.test)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._scan_guarded(
                    module, stmt.body + stmt.orelse, instrument_locals, guarded,
                    attrs, methods, rule_id, noun)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._scan_guarded(
                    module, stmt.body, instrument_locals, guarded,
                    attrs, methods, rule_id, noun)
                continue
            if isinstance(stmt, ast.Try):
                inner = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    inner = inner + handler.body
                yield from self._scan_guarded(
                    module, inner, instrument_locals, guarded,
                    attrs, methods, rule_id, noun)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # handled as their own scope
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in methods):
                    continue
                receiver = node.func.value
                if (isinstance(receiver, ast.Attribute)
                        and receiver.attr in attrs):
                    yield self.finding(
                        rule_id, module, node,
                        f"chained '<owner>.{receiver.attr}.{node.func.attr}(...)' "
                        f"re-loads the attribute and crashes when the {noun} "
                        f"is detached",
                    )
                elif (isinstance(receiver, ast.Name)
                        and receiver.id in instrument_locals
                        and receiver.id not in guarded):
                    yield self.finding(
                        rule_id, module, node,
                        f"{noun} local {receiver.id!r} is used without an "
                        f"'is not None' guard",
                    )

    @staticmethod
    def _names_guarded_by(test: ast.AST) -> Set[str]:
        """Names proven non-None by an if-test (x, 'x is not None', and-chains)."""
        names: Set[str] = set()
        queue: List[ast.AST] = [test]
        while queue:
            node = queue.pop()
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                queue.extend(node.values)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Compare) and len(node.ops) == 1
                    and isinstance(node.ops[0], ast.IsNot)
                    and isinstance(node.left, ast.Name)
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value is None):
                names.add(node.left.id)
        return names

    @staticmethod
    def _names_refuted_by(test: ast.AST) -> Set[str]:
        """Names that are None when the test holds ('x is None', 'not x')."""
        names: Set[str] = set()
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            names.add(test.left.id)
        elif (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Name)):
            names.add(test.operand.id)
        return names
