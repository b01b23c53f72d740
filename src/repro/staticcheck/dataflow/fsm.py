"""RS51x: port-state-machine conformance (§6.2 / §6.5.1 / §6.6).

The paper's correctness argument treats the port FSM (Figure 8) as an
analyzable artifact; this pass does the same to the code.  It extracts
the :class:`PortState` enum and the ``*_TRANSITIONS`` tables from the
``portstate`` module *syntactically* (no import of analyzed code) and
checks:

* **RS510** -- a handler that *dispatches* on port state (an if/elif
  chain or ``match`` testing three or more distinct states against one
  subject) must handle the full state set: every remaining state, an
  ``else`` branch, or follow-on statements.  A dispatch that is the last
  statement of its block with neither is a silent fall-through -- the
  §6.6 self-stabilization argument assumes every state is acted on.
* **RS511** -- the transition tables themselves stay total and well
  formed: every enum member appears as a source state in some table,
  and every state a table mentions is a declared member (a typo would
  otherwise silently delete an arrow from Figure 8).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.dataflow.callgraph import FunctionInfo, Project
from repro.staticcheck.framework import Finding, Pass, Rule

#: class name of the port FSM enum, as in :mod:`repro.core.portstate`
ENUM_NAME = "PortState"

#: minimum distinct states compared against one subject before a chain
#: counts as a *dispatch* (single-state guards are not dispatches)
DISPATCH_THRESHOLD = 3

_MATCH = getattr(ast, "Match", None)
_MATCH_VALUE = getattr(ast, "MatchValue", None)
_MATCH_AS = getattr(ast, "MatchAs", None)
_MATCH_OR = getattr(ast, "MatchOr", None)


class _Fsm:
    """The syntactically-extracted state machine."""

    def __init__(self) -> None:
        self.module: Optional[str] = None
        self.relpath: str = ""
        self.members: List[str] = []
        #: table name -> (lineno, source-state member names)
        self.tables: Dict[str, Tuple[int, List[str]]] = {}
        #: every member name referenced inside any table, with locations
        self.referenced: List[Tuple[str, int]] = []

    @property
    def member_set(self) -> Set[str]:
        return set(self.members)


def extract_fsm(project: Project) -> Optional[_Fsm]:
    """Find the ``portstate`` module and pull out enum + tables."""
    for module in sorted(project.modules):
        if not (module == "portstate" or module.endswith(".portstate")):
            continue
        parsed = project.modules[module]
        fsm = _Fsm()
        fsm.module = module
        fsm.relpath = parsed.relpath
        for stmt in parsed.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == ENUM_NAME:
                for sub in stmt.body:
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                            and isinstance(sub.targets[0], ast.Name) \
                            and isinstance(sub.value, ast.Constant):
                        fsm.members.append(sub.targets[0].id)
                continue
            target: Optional[ast.Name] = None
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                target, value = stmt.target, stmt.value
            if target is not None and value is not None \
                    and target.id.endswith("_TRANSITIONS"):
                table = _unwrap_dict(value)
                if table is None:
                    continue
                sources: List[str] = []
                for key in table.keys:
                    member = _portstate_member(key)
                    if member is not None:
                        sources.append(member)
                        fsm.referenced.append((member, key.lineno))
                for val in table.values:
                    for node in ast.walk(val):
                        member = _portstate_member(node)
                        if member is not None:
                            fsm.referenced.append((member, node.lineno))
                fsm.tables[target.id] = (stmt.lineno, sources)
        if fsm.members:
            return fsm
    return None


def _unwrap_dict(node: ast.AST) -> Optional[ast.Dict]:
    """The dict literal inside ``MappingProxyType({...})`` or bare."""
    if isinstance(node, ast.Call) and node.args:
        return _unwrap_dict(node.args[0])
    if isinstance(node, ast.Dict):
        return node
    return None


def _portstate_member(node: ast.AST) -> Optional[str]:
    """``PortState.X`` (or ``portstate.PortState.X``) -> ``"X"``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name) and value.id == ENUM_NAME:
        return node.attr
    if isinstance(value, ast.Attribute) and value.attr == ENUM_NAME:
        return node.attr
    return None


def _subject_and_states(test: ast.AST) -> Optional[Tuple[str, Set[str]]]:
    """``(subject dump, states)`` for a PortState comparison test."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        subject: Optional[str] = None
        states: Set[str] = set()
        for value in test.values:
            part = _subject_and_states(value)
            if part is None:
                return None
            if subject is None:
                subject = part[0]
            elif subject != part[0]:
                return None
            states |= part[1]
        return (subject, states) if subject is not None else None
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    left, right = test.left, test.comparators[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        member = _portstate_member(right)
        if member is not None:
            return ast.dump(left), {member}
        member = _portstate_member(left)
        if member is not None:
            return ast.dump(right), {member}
        return None
    if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.Set, ast.List)):
        members: Set[str] = set()
        for elt in right.elts:
            member = _portstate_member(elt)
            if member is None:
                return None
            members.add(member)
        if members:
            return ast.dump(left), members
    return None


class PortFsmPass(Pass):
    name = "port-fsm"
    rules = (
        Rule(
            id="RS510",
            title="port-state dispatch silently falls through",
            invariant="every handler dispatching on PortState handles the "
                      "full state set",
            paper="§6.5.1 Figure 8 / §6.6 (self-stabilization acts on every state)",
            hint="handle the missing states or add an explicit else "
                 "(raise / return) so new states cannot be dropped silently",
        ),
        Rule(
            id="RS511",
            title="port FSM transition table incomplete or malformed",
            invariant="the coded transition tables stay total over PortState",
            paper="§6.5.1 Figure 8 (the transition relation is the spec)",
            hint="give every PortState a source entry in some *_TRANSITIONS "
                 "table and reference only declared members",
        ),
    )

    def run(self, project: Project) -> Iterator[Finding]:
        fsm = extract_fsm(project)
        if fsm is None:
            return
        yield from self._check_tables(fsm)
        for info in project.iter_functions():
            yield from self._check_dispatches(fsm, info)

    # -- RS511 -----------------------------------------------------------------------

    def _check_tables(self, fsm: _Fsm) -> Iterator[Finding]:
        if not fsm.tables:
            return
        covered: Set[str] = set()
        first_line = min(line for line, _ in fsm.tables.values())
        for _, sources in fsm.tables.values():
            covered.update(sources)
        missing = sorted(fsm.member_set - covered)
        if missing:
            yield self.finding(
                "RS511", fsm, first_line,
                f"transition tables have no source entry for state(s) "
                f"{', '.join(missing)}: Figure 8 must stay total",
            )
        for member, line in sorted(set(fsm.referenced)):
            if member not in fsm.member_set:
                yield self.finding(
                    "RS511", fsm, line,
                    f"transition table references unknown state "
                    f"PortState.{member}",
                )

    # -- RS510 -----------------------------------------------------------------------

    def _check_dispatches(self, fsm: _Fsm, info: FunctionInfo) -> Iterator[Finding]:
        if info.module == fsm.module:
            return  # the FSM module itself is the spec, not a handler
        # an elif arm is an If that is the sole statement of another If's
        # orelse; those are continuations of a chain, not chain starts
        continuations: Set[int] = set()
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.If) and len(sub.orelse) == 1 \
                    and isinstance(sub.orelse[0], ast.If):
                continuations.add(id(sub.orelse[0]))
        for block in _blocks(info.node):
            for index, stmt in enumerate(block):
                last = index == len(block) - 1
                if isinstance(stmt, ast.If) and id(stmt) not in continuations:
                    yield from self._check_chain(fsm, info, stmt, last)
                elif _MATCH is not None and isinstance(stmt, _MATCH):
                    yield from self._check_match(fsm, info, stmt)

    def _check_chain(self, fsm: _Fsm, info: FunctionInfo, chain: ast.If,
                     is_last: bool) -> Iterator[Finding]:
        subject: Optional[str] = None
        states: Set[str] = set()
        node: ast.stmt = chain
        while isinstance(node, ast.If):
            part = _subject_and_states(node.test)
            if part is None:
                return  # mixed-condition chain: not a pure state dispatch
            if subject is None:
                subject = part[0]
            elif subject != part[0]:
                return
            states |= part[1]
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
            elif node.orelse:
                return  # explicit else branch: fall-through handled
            else:
                break
        if len(states) < DISPATCH_THRESHOLD:
            return
        missing = sorted(fsm.member_set - states)
        if missing and is_last:
            yield self.finding(
                "RS510", info, chain,
                f"{info.qname} dispatches on PortState but silently falls "
                f"through for {', '.join('PortState.' + m for m in missing)}",
            )

    def _check_match(self, fsm: _Fsm, info: FunctionInfo,
                     stmt: ast.AST) -> Iterator[Finding]:
        states: Set[str] = set()
        for case in stmt.cases:  # type: ignore[attr-defined]
            patterns = [case.pattern]
            if _MATCH_OR is not None and isinstance(case.pattern, _MATCH_OR):
                patterns = list(case.pattern.patterns)
            for pattern in patterns:
                if _MATCH_AS is not None and isinstance(pattern, _MATCH_AS) \
                        and pattern.pattern is None:
                    return  # wildcard case: everything handled
                if _MATCH_VALUE is not None and isinstance(pattern, _MATCH_VALUE):
                    member = _portstate_member(pattern.value)
                    if member is None:
                        return  # matching something other than PortState
                    states.add(member)
                else:
                    return
        if len(states) < DISPATCH_THRESHOLD:
            return
        missing = sorted(fsm.member_set - states)
        if missing:
            yield self.finding(
                "RS510", info, stmt,
                f"{info.qname} matches on PortState but has no case for "
                f"{', '.join('PortState.' + m for m in missing)} and no "
                f"wildcard",
            )


def _blocks(node: ast.AST) -> Iterator[Sequence[ast.stmt]]:
    """Every statement list in a function: body, orelse, try parts..."""
    for sub in ast.walk(node):
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(sub, field_name, None)
            if isinstance(block, list) and block \
                    and all(isinstance(s, ast.stmt) for s in block):
                yield block
