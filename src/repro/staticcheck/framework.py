"""Core machinery for the ``repro.staticcheck`` analysis suite.

The suite is a set of *passes*, each owning a family of rules with stable
IDs (``RS1xx`` determinism, ``RS2xx`` event-handler purity, ``RS3xx``
observability discipline, ``RS4xx`` mutable-state hygiene).  Every rule
is a pattern match over one file at a time: no imports of the code under
analysis, no execution, just :mod:`ast`, and nothing carried from one
file or one run into the next.  That keeps the linter safe to run on
broken trees and byte-deterministic -- the same source always yields the
same report, which is itself a determinism invariant this repo cares
about.  What a per-file match cannot see (a value laundered through
helpers, an off-table port transition) is held dynamically instead; the
mutation table in DESIGN.md says by what.

Layout of a run:

1. :func:`discover` walks the scan roots for ``*.py`` files (sorted, so
   report order never depends on filesystem order).
2. :func:`parse_module` builds a :class:`ParsedModule` with a best-effort
   dotted module name (walking ``__init__.py`` parents), which rules use
   to scope themselves to hot-path packages vs CLI/analysis modules.
3. The parsed modules form one :class:`Project`, and each selected
   pass's :meth:`Pass.run` yields :class:`Finding` objects from it.
4. A :class:`~repro.staticcheck.baseline.Baseline` splits findings into
   *active* (fail the build) and *suppressed* (grandfathered, each with a
   recorded justification).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: rule id for files the parser itself rejects -- always active, never
#: baselined away silently (a file that cannot be parsed cannot be checked)
PARSE_ERROR_RULE = "RS000"


@dataclass(frozen=True)
class Rule:
    """Stable metadata for one check.

    ``invariant`` names what the rule protects; ``paper`` points at the
    section of the Autonet paper (or of DESIGN.md) that motivates it;
    ``hint`` is the one-line fix suggestion attached to every finding.
    """

    id: str
    title: str
    invariant: str
    paper: str
    hint: str


@dataclass
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: set when a baseline suppression matched; carries its justification
    justification: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
        if self.justification is not None:
            out["justification"] = self.justification
        return out


@dataclass
class ParsedModule:
    """A source file plus the context rules need to scope themselves."""

    path: Path
    relpath: str  # posix-style, as reported in findings
    module: str  # best-effort dotted name ("repro.net.switch")
    tree: ast.Module
    source: str

    @property
    def is_main(self) -> bool:
        """True for ``python -m`` entry points (CLI modules)."""
        return self.module.endswith("__main__")

    def in_package(self, *packages: str) -> bool:
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


class Project:
    """Every parsed file of one run, in dotted-name order."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.files: List[ParsedModule] = sorted(modules, key=lambda m: m.module)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """A fixture project from an in-memory ``{module name: source}``
        mapping; paths are synthesized as ``src/<module path>.py``."""
        modules = []
        for module, source in sources.items():
            path = "src/" + module.replace(".", "/") + ".py"
            modules.append(ParsedModule(Path(path), path, module, ast.parse(source), source))
        return cls(modules)


class Pass:
    """Base class: one family of rules, each a pattern match over one
    file: a family overrides :meth:`check` and inherits the loop."""

    name = "base"
    rules: Tuple[Rule, ...] = ()

    def run(self, project: Project) -> Iterable[Finding]:
        for module in project.files:
            yield from self.check(module)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def finding(self, rule_id: str, module: ParsedModule, node: ast.AST,
                message: str) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            rule=rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=rule.hint,
        )


# -- shared AST helpers ----------------------------------------------------------


class ImportMap:
    """Resolves names back to the dotted path they were imported from.

    ``import time as t`` maps ``t`` -> ``time``; ``from datetime import
    datetime`` maps ``datetime`` -> ``datetime.datetime``.  With that,
    :meth:`resolve_call` turns ``t.monotonic()`` into the canonical
    ``time.monotonic`` every rule table is written against.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}
        self.name_origins: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.name_origins[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of an expression, or None if unknown."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.name_origins:
            base = self.name_origins[root]
        elif root in self.module_aliases:
            base = self.module_aliases[root]
        elif not parts:
            # a bare name that was never imported: a builtin or local
            return root
        else:
            return None
        return ".".join([base] + list(reversed(parts)))


def dotted_name(node: ast.AST) -> Optional[str]:
    """Literal dotted form of an attribute chain (``self.sim.metrics``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Outermost type name of a parameter annotation.

    Unwraps ``Optional[X]``/``"X"`` string annotations to ``X`` so purity
    rules can recognize component-typed parameters.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: take the outer identifier
        text = node.value.strip().strip("'\"")
        for wrapper in ("Optional[", "Union["):
            if text.startswith(wrapper) and text.endswith("]"):
                text = text[len(wrapper):-1].split(",")[0].strip()
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        outer = annotation_name(node.value)
        if outer in ("Optional", "Union"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return annotation_name(inner.elts[0])
            return annotation_name(inner)
        return outer
    return None


def function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


#: constructors that build a mutable container
MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


def mutable_kind(node: ast.AST) -> Optional[str]:
    """Human name of the mutable container an expression builds, if any."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in MUTABLE_FACTORIES:
            return name
    return None


# -- discovery and parsing --------------------------------------------------------


def discover(paths: Sequence[Path]) -> List[Path]:
    """All ``*.py`` files under the given files/directories, sorted."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name, walking ``__init__.py`` parents."""
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def display_path(path: Path) -> str:
    """Stable posix-style path for reports: CWD-relative when possible."""
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path) -> Tuple[Optional[ParsedModule], Optional[Finding]]:
    """Parse one file; on a syntax error return an RS000 finding instead."""
    source = path.read_text(encoding="utf-8", errors="replace")
    relpath = display_path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=error.lineno or 0,
            col=error.offset or 0,
            message=f"file does not parse: {error.msg}",
            hint="fix the syntax error; unparsable files cannot be checked",
        )
    return ParsedModule(
        path=path,
        relpath=relpath,
        module=module_name_for(path),
        tree=tree,
        source=source,
    ), None


# -- suite driver ------------------------------------------------------------------


def default_passes() -> List[Pass]:
    from repro.staticcheck.determinism import DeterminismPass
    from repro.staticcheck.hygiene import HygienePass
    from repro.staticcheck.obsrules import ObsDisciplinePass
    from repro.staticcheck.purity import PurityPass

    return [DeterminismPass(), PurityPass(), ObsDisciplinePass(), HygienePass()]


def all_rules(passes: Optional[Sequence[Pass]] = None) -> List[Rule]:
    rules: List[Rule] = [
        Rule(
            id=PARSE_ERROR_RULE,
            title="file does not parse",
            invariant="every checked file is analyzable",
            paper="-",
            hint="fix the syntax error; unparsable files cannot be checked",
        )
    ]
    for pass_ in passes if passes is not None else default_passes():
        rules.extend(pass_.rules)
    return sorted(rules, key=lambda r: r.id)


@dataclass
class SuiteResult:
    """Outcome of one suite run, before rendering."""

    findings: List[Finding]  # active: fail the run
    suppressed: List[Finding]  # matched a baseline entry
    stale_suppressions: List[Dict[str, str]]  # in-scope baseline entries that matched nothing
    files_scanned: int
    roots: List[str]

    @property
    def ok(self) -> bool:
        # stale suppressions fail the run: a baseline may only shrink,
        # and a dead entry means a fix landed without its cleanup
        return not self.findings and not self.stale_suppressions

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _selected(rule: str, prefixes: Sequence[str]) -> bool:
    return not prefixes or any(rule.startswith(p) for p in prefixes)


def _run_passes(project: Project, passes: Optional[Sequence[Pass]],
                prefixes: Sequence[str] = ()) -> List[Finding]:
    """Findings of the selected rules, running only the passes that own one."""
    found: List[Finding] = []
    for pass_ in passes if passes is not None else default_passes():
        if any(_selected(rule.id, prefixes) for rule in pass_.rules):
            found.extend(f for f in pass_.run(project) if _selected(f.rule, prefixes))
    return found


def check_sources(sources: Dict[str, str],
                  passes: Optional[Sequence[Pass]] = None) -> List[Finding]:
    """Check an in-memory ``{module name: source}`` project.

    The unit-test entry point: rule fixtures feed violating and clean
    snippets through here without touching the filesystem.
    """
    found = _run_passes(Project.from_sources(sources), passes)
    return sorted(found, key=Finding.sort_key)


def check_source(source: str, module: str = "repro.fixture",
                 passes: Optional[Sequence[Pass]] = None) -> List[Finding]:
    """:func:`check_sources` for a single snippet posing as ``module``."""
    return check_sources({module: source}, passes)


def suppression_in_scope(rule: str, path: str, roots: Sequence[str],
                         prefixes: Sequence[str]) -> bool:
    """Whether a baseline entry could possibly match in this run.

    Stale detection (and :option:`--prune-baseline`) must only judge
    entries the run actually looked at: an ``src/`` suppression is not
    stale just because this invocation scanned ``tests/``, and an RS101
    entry is not stale under ``--select RS4``.
    """
    if rule != PARSE_ERROR_RULE and not _selected(rule, prefixes):
        return False
    entry = path.replace("\\", "/").strip("/")
    for root in roots:
        r = str(root).replace("\\", "/").strip("/")
        if r in ("", "."):
            return True
        # suffix-tolerant containment, mirroring Baseline path matching:
        # a scan rooted at "/abs/src" still covers "src/repro/x.py"
        parts = r.split("/")
        for i in range(len(parts)):
            suffix = "/".join(parts[i:])
            if entry == suffix or entry.startswith(suffix + "/"):
                return True
    return False


def run_suite(
    paths: Sequence[Path],
    passes: Optional[Sequence[Pass]] = None,
    select: Optional[Iterable[str]] = None,
    baseline: Optional[Any] = None,  # Baseline; Any avoids a cycle
) -> SuiteResult:
    """Parse every file under ``paths`` into one project and run the
    ``passes`` (default: :func:`default_passes`) that own a selected
    rule over it, from scratch."""
    prefixes = tuple(select) if select else ()
    files = discover([Path(p) for p in paths])
    findings: List[Finding] = []
    parsed_modules: List[ParsedModule] = []
    for path in files:
        parsed, parse_error = parse_module(path)
        if parsed is not None:
            parsed_modules.append(parsed)
        else:
            findings.append(parse_error)  # type: ignore[arg-type]
    findings.extend(_run_passes(Project(parsed_modules), passes, prefixes))
    findings.sort(key=Finding.sort_key)

    roots = [display_path(Path(p)) for p in paths]
    active: List[Finding] = []
    suppressed: List[Finding] = []
    stale: List[Dict[str, str]] = []
    if baseline is not None:
        for finding in findings:
            entry = baseline.match(finding)
            if entry is not None and finding.rule != PARSE_ERROR_RULE:
                finding.justification = entry.justification
                suppressed.append(finding)
            else:
                active.append(finding)
        stale = [
            {"rule": s.rule, "path": s.path, "justification": s.justification}
            for s in baseline.stale()
            if suppression_in_scope(s.rule, s.path, roots, prefixes)
        ]
    else:
        active = findings
    return SuiteResult(
        findings=active,
        suppressed=suppressed,
        stale_suppressions=stale,
        files_scanned=len(files),
        roots=roots,
    )
