"""The :class:`Project` model and whole-program call graph.

Everything here is still pure :mod:`ast` -- no code under analysis is
imported or executed -- but unlike a per-file rule the resolver sees
*all* parsed modules at once, so a call like ``self.monitor.sample()``
can be followed into another module's class.

Name resolution, in decreasing order of confidence:

* plain names: module-local functions, ``name = lambda ...`` bindings,
  ``alias = function`` re-bindings, then import-map lookups
  (``from x import f as g`` resolves ``g`` back to ``x.f``);
* methods: ``self.m()`` / ``cls.m()`` via class-attribute lookup in the
  defining class and its resolved bases; ``super().m()`` starting at the
  first base; ``obj.m()`` when ``obj`` is a parameter annotated with a
  project class, a local assigned from a project-class constructor, or a
  ``self.attr`` whose type was inferred from ``__init__``;
* dotted calls: ``pkg.mod.f()`` through the import map, following
  package ``__init__`` re-exports for a bounded number of hops.

Decorated functions keep their name (the common case: the decorator
wraps and re-binds), so a call to a decorated function still resolves to
its body.  Lookup depth, re-export hops and summary propagation are all
bounded (:data:`MAX_LOOKUP_DEPTH`, :data:`MAX_REEXPORT_HOPS`) so cyclic
imports and deep hierarchies can never hang the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.framework import ImportMap, ParsedModule, annotation_name

#: schema id of the serialized call graph (the golden-snapshot artifact)
CALLGRAPH_SCHEMA = "repro.staticcheck.callgraph/1"

#: bound on base-class walks while resolving a method
MAX_LOOKUP_DEPTH = 8

#: bound on package-``__init__`` re-export hops while resolving a name
MAX_REEXPORT_HOPS = 3


@dataclass
class FunctionInfo:
    """One analyzable function: a def, a method, or a named lambda."""

    qname: str  # "repro.net.switch.Switch.handle"
    module: str  # "repro.net.switch"
    relpath: str
    name: str  # "handle"
    cls: Optional[str]  # enclosing class name, if a method
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    lineno: int

    @property
    def body(self) -> List[ast.stmt]:
        if isinstance(self.node, ast.Lambda):
            return [ast.Expr(value=self.node.body)]
        return list(self.node.body)  # type: ignore[attr-defined]

    def param_names(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in
                 list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)]
        if names and self.cls is not None and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ClassInfo:
    """One project class: methods, bases, and inferred attribute types."""

    qname: str  # "repro.net.switch.Switch"
    module: str
    name: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)  # as written
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> raw type name


class CallGraph:
    """Caller -> callees over function qualified names, deterministic."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}

    def add(self, caller: str, callee: str) -> None:
        self._edges.setdefault(caller, set()).add(callee)

    def callees(self, caller: str) -> Tuple[str, ...]:
        return tuple(sorted(self._edges.get(caller, ())))

    def callers_of(self, callee: str) -> Tuple[str, ...]:
        return tuple(sorted(
            caller for caller, callees in self._edges.items() if callee in callees
        ))

    def edges(self) -> Dict[str, Tuple[str, ...]]:
        return {caller: tuple(sorted(callees))
                for caller, callees in sorted(self._edges.items())}

    def to_json(self, functions: Sequence[str] = ()) -> Dict[str, Any]:
        """Stable document for golden snapshots and debugging dumps."""
        return {
            "schema": CALLGRAPH_SCHEMA,
            "functions": sorted(functions),
            "edges": {caller: sorted(callees)
                      for caller, callees in sorted(self._edges.items())},
        }


class Project:
    """All parsed modules plus the indices whole-program passes share."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        #: every parsed file, in dotted-name order: what per-file rules loop
        self.files: List[ParsedModule] = sorted(modules, key=lambda m: m.module)
        self.modules: Dict[str, ParsedModule] = {}
        self.imports: Dict[str, ImportMap] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module-level ``g = f`` where f is a project function
        self.function_aliases: Dict[str, str] = {}
        #: module-level ``clock = time.monotonic``: name qname -> canonical dotted
        self.external_aliases: Dict[str, str] = {}
        self.callgraph = CallGraph()
        #: per-function local-variable class types (name -> class qname)
        self._local_types: Dict[str, Dict[str, str]] = {}

        for parsed in self.files:
            if parsed.module in self.modules:
                continue  # duplicate dotted name: keep the first, deterministic
            self.modules[parsed.module] = parsed
            self.imports[parsed.module] = ImportMap(parsed.tree)
        for parsed in self.modules.values():
            self._index_module(parsed)
        self._resolve_attr_types()
        for info in self.functions.values():
            self._local_types[info.qname] = self._infer_local_types(info)
        self._build_edges()

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """A fixture project from an in-memory ``{module name: source}``
        mapping; paths are synthesized as ``src/<module path>.py``."""
        modules: List[ParsedModule] = []
        for module, source in sources.items():
            path = "src/" + module.replace(".", "/") + ".py"
            modules.append(ParsedModule(
                path=Path(path),
                relpath=path,
                module=module,
                tree=ast.parse(source),
                source=source,
            ))
        return cls(modules)

    # -- indexing ------------------------------------------------------------------

    def _index_module(self, parsed: ParsedModule) -> None:
        for stmt in parsed.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(parsed, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(parsed, stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                self._index_binding(parsed, stmt.targets[0].id, stmt.value, stmt)

    def _add_function(self, parsed: ParsedModule, node: ast.AST,
                      cls: Optional[str], name: Optional[str] = None) -> FunctionInfo:
        fname = name if name is not None else node.name  # type: ignore[attr-defined]
        qname = ".".join(filter(None, [parsed.module, cls, fname]))
        info = FunctionInfo(
            qname=qname,
            module=parsed.module,
            relpath=parsed.relpath,
            name=fname,
            cls=cls,
            node=node,
            lineno=getattr(node, "lineno", 0),
        )
        self.functions[qname] = info
        return info

    def _index_class(self, parsed: ParsedModule, node: ast.ClassDef) -> None:
        qname = f"{parsed.module}.{node.name}"
        info = ClassInfo(qname=qname, module=parsed.module, name=node.name, node=node)
        for base in node.bases:
            written = _dotted_of(base)
            if written is not None:
                info.base_names.append(written)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(parsed, stmt, cls=node.name)
                info.methods[stmt.name] = fn.qname
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Lambda):
                fn = self._add_function(parsed, stmt.value, cls=node.name,
                                        name=stmt.targets[0].id)
                fn.lineno = stmt.lineno
                info.methods[stmt.targets[0].id] = fn.qname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                type_name = annotation_name(stmt.annotation)
                if type_name is not None:
                    info.attr_types.setdefault(stmt.target.id, type_name)
        self.classes[qname] = info

    def _index_binding(self, parsed: ParsedModule, name: str,
                       value: ast.AST, stmt: ast.Assign) -> None:
        mod = parsed.module
        qname = f"{mod}.{name}"
        if isinstance(value, ast.Lambda):
            fn = self._add_function(parsed, value, cls=None, name=name)
            fn.lineno = stmt.lineno
            return
        written = _dotted_of(value)
        if written is None:
            return
        local = f"{mod}.{written}"
        if local in self.functions or local in self.function_aliases:
            self.function_aliases[qname] = self.function_aliases.get(local, local)
            return
        canonical = self.imports[mod].resolve(value)
        if canonical is None or canonical == written.split(".")[0] and "." not in written:
            canonical = written if "." in written else None
        if canonical is None:
            return
        target = self.function_for_dotted(canonical)
        if target is not None:
            self.function_aliases[qname] = target
        else:
            self.external_aliases[qname] = canonical

    def _resolve_attr_types(self) -> None:
        """Second pass: ``self.attr = ClassName(...)`` type inference."""
        for cls in self.classes.values():
            imap = self.imports[cls.module]
            for method_qname in cls.methods.values():
                method = self.functions[method_qname]
                for node in ast.walk(method.node):
                    target: Optional[ast.AST] = None
                    value: Optional[ast.AST] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target = node.target
                        ann = annotation_name(node.annotation)
                        if ann is not None and self._is_self_attr(target):
                            cls.attr_types.setdefault(target.attr, ann)  # type: ignore[union-attr]
                        continue
                    if target is None or not self._is_self_attr(target):
                        continue
                    if isinstance(value, ast.Call):
                        constructed = self._constructed_class(cls.module, imap, value)
                        if constructed is not None:
                            cls.attr_types.setdefault(
                                target.attr, constructed)  # type: ignore[union-attr]

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    # -- lookup helpers -------------------------------------------------------------

    def class_for_name(self, module: str, written: str,
                       _hops: int = 0) -> Optional[str]:
        """Resolve a class name as written in ``module`` to a class qname."""
        if _hops > MAX_REEXPORT_HOPS:
            return None
        local = f"{module}.{written}"
        if local in self.classes:
            return local
        imap = self.imports.get(module)
        canonical = imap.resolve(_name_node(written)) if imap else None
        for candidate in (canonical, written):
            if candidate is None:
                continue
            if candidate in self.classes:
                return candidate
            # re-export hop: "repro.net.Switch" where repro.net/__init__ says
            # "from repro.net.switch import Switch"
            holder, _, leaf = candidate.rpartition(".")
            if holder in self.modules and holder != module:
                hop = self.class_for_name(holder, leaf, _hops + 1)
                if hop is not None:
                    return hop
        return None

    def lookup_method(self, class_qname: str, method: str,
                      _depth: int = 0) -> Optional[str]:
        """Class-attribute lookup through resolved bases, depth-bounded."""
        if _depth > MAX_LOOKUP_DEPTH:
            return None
        cls = self.classes.get(class_qname)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        for base_written in cls.base_names:
            base = self.class_for_name(cls.module, base_written)
            if base is not None and base != class_qname:
                found = self.lookup_method(base, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def function_for_dotted(self, dotted: str, _hops: int = 0) -> Optional[str]:
        """Project function for a canonical dotted path, following re-exports."""
        if _hops > MAX_REEXPORT_HOPS:
            return None
        if dotted in self.functions:
            return dotted
        if dotted in self.function_aliases:
            return self.function_aliases[dotted]
        holder, _, leaf = dotted.rpartition(".")
        if not holder:
            return None
        if holder in self.classes:
            return self.lookup_method(holder, leaf)
        if holder in self.modules:
            imap = self.imports[holder]
            canonical = imap.resolve(_name_node(leaf))
            if canonical is not None and canonical != dotted and canonical != leaf:
                return self.function_for_dotted(canonical, _hops + 1)
        return None

    def external_for_dotted(self, module: str, node: ast.AST) -> Optional[str]:
        """Canonical external dotted path of a call target, alias-aware.

        Resolves through the module's import map first, then through
        module-level ``clock = time.monotonic`` style callable aliases.
        """
        imap = self.imports.get(module)
        if imap is None:
            return None
        resolved = imap.resolve(node)
        if isinstance(node, ast.Name):
            alias = self.external_aliases.get(f"{module}.{node.id}")
            if alias is not None:
                return alias
        if resolved is not None:
            # cross-module: "helpers.clock" is the alias qname in its
            # defining module
            alias = self.external_aliases.get(resolved)
            if alias is not None:
                return alias
        return resolved

    # -- type inference -------------------------------------------------------------

    def _constructed_class(self, module: str, imap: ImportMap,
                           call: ast.Call) -> Optional[str]:
        written = _dotted_of(call.func)
        if written is None:
            return None
        return self.class_for_name(module, written)

    def _infer_local_types(self, info: FunctionInfo) -> Dict[str, str]:
        """Parameter annotations + ``x = ClassName(...)`` constructor locals."""
        types: Dict[str, str] = {}
        node = info.node
        imap = self.imports[info.module]
        args = getattr(node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                ann = annotation_name(arg.annotation)
                if ann is None:
                    continue
                resolved = self.class_for_name(info.module, ann)
                if resolved is not None:
                    types[arg.arg] = resolved
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and isinstance(sub.value, ast.Call):
                constructed = self._constructed_class(info.module, imap, sub.value)
                if constructed is not None:
                    types.setdefault(sub.targets[0].id, constructed)
        return types

    def local_types(self, qname: str) -> Dict[str, str]:
        return self._local_types.get(qname, {})

    # -- call resolution ------------------------------------------------------------

    def resolve_call(self, caller: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Project function qname this call dispatches to, or None."""
        func = call.func
        mod = caller.module
        # super().m(...)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call) \
                and isinstance(func.value.func, ast.Name) \
                and func.value.func.id == "super":
            if caller.cls is not None:
                cls = self.classes.get(f"{mod}.{caller.cls}")
                if cls is not None:
                    for base_written in cls.base_names:
                        base = self.class_for_name(mod, base_written)
                        if base is not None:
                            found = self.lookup_method(base, func.attr)
                            if found is not None:
                                return found
            return None
        if isinstance(func, ast.Name):
            return self._resolve_plain(caller, func.id)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # self.m() / cls.m()
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls") \
                    and caller.cls is not None:
                return self.lookup_method(f"{mod}.{caller.cls}", func.attr)
            # self.attr.m() via inferred attribute types
            if isinstance(receiver, ast.Attribute) \
                    and isinstance(receiver.value, ast.Name) \
                    and receiver.value.id in ("self", "cls") and caller.cls is not None:
                cls = self.classes.get(f"{mod}.{caller.cls}")
                if cls is not None:
                    written = cls.attr_types.get(receiver.attr)
                    if written is not None:
                        typed = self.class_for_name(mod, written) \
                            if written not in self.classes else written
                        if typed is not None:
                            return self.lookup_method(typed, func.attr)
            # obj.m() via annotated parameters / constructor locals
            if isinstance(receiver, ast.Name):
                typed = self.local_types(caller.qname).get(receiver.id)
                if typed is not None:
                    return self.lookup_method(typed, func.attr)
            # pkg.mod.f() through the import map
            dotted = self.imports[mod].resolve(func)
            if dotted is not None:
                return self.function_for_dotted(dotted)
        return None

    def _resolve_plain(self, caller: FunctionInfo, name: str) -> Optional[str]:
        mod = caller.module
        local = f"{mod}.{name}"
        if local in self.functions:
            return local
        if local in self.function_aliases:
            return self.function_aliases[local]
        canonical = self.imports[mod].resolve(_name_node(name))
        if canonical is not None and canonical != name:
            found = self.function_for_dotted(canonical)
            if found is not None:
                return found
            # constructing an imported project class dispatches its __init__
            if canonical in self.classes:
                return self.lookup_method(canonical, "__init__")
        if local in self.classes:
            return self.lookup_method(local, "__init__")
        return None

    # -- edges ----------------------------------------------------------------------

    def _build_edges(self) -> None:
        for qname in sorted(self.functions):
            info = self.functions[qname]
            for call in iter_calls(info.node):
                callee = self.resolve_call(info, call)
                if callee is not None and callee != qname:
                    self.callgraph.add(qname, callee)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def to_json(self) -> Dict[str, Any]:
        return self.callgraph.to_json(functions=sorted(self.functions))


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Every call in a function body, including inside nested defs.

    Nested defs and lambdas are not separately indexed functions; their
    calls are attributed to the enclosing definition, which is what both
    taint propagation and reachability want.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _dotted_of(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _name_node(written: str) -> ast.AST:
    """A synthetic Name/Attribute node for resolver reuse."""
    parts = written.split(".")
    node: ast.AST = ast.Name(id=parts[0], ctx=ast.Load())
    for attr in parts[1:]:
        node = ast.Attribute(value=node, attr=attr, ctx=ast.Load())
    return node
