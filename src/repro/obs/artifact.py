"""One artifact envelope: every ``repro.*/1`` document is checked, read,
written and rendered here.

The paper's §6.7 debugging story is one merged log read by one tool.
The repo's equivalent is a family of JSON documents (bench tables,
flight traces, timeseries, in-band telemetry, regress verdicts,
traffic SLOs, chaos reproducers), each tagged ``"schema": "repro.x/1"``.
A layer declares *what* its document looks like -- a :class:`Schema`
beside the ``document()`` that produces it, holding the document's one
text renderer when it has one -- and this module is the only place that
knows *how* to walk, load, serialize and dispatch one.

The spec vocabulary is plain Python data:

* ``{"key": spec, ...}``  -- an object with at least these keys (an
  absent key reads as null, so only :class:`Opt` keys may be omitted;
  :func:`keys` declares several keys of one kind at once);
* ``[spec]``              -- an array whose items all match ``spec``;
* ``(spec, spec, ...)``   -- an array of exactly these items, in order;
* :class:`Opt` (nullable), :class:`Map` (arbitrary keys), and the
  leaves: :class:`Enum` and the :class:`Atom` constants ``INT``,
  ``COUNT``, ``NUM``, ``NONNEG``, ``STR``, ``NAME``, ``BOOL``, ``SCALAR``.

What a table cannot say (row width equals header width, B/E slices
nest, a recount matches) goes in the schema's one ``rules(doc)`` hook,
which runs after the table walk and reports through :func:`fail`.
Every defect raises :class:`SchemaError` as ``$.path.to[3].field: why``.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, NoReturn, Optional, Tuple

#: schema tag -> the module whose ``ARTIFACT`` declares it (imported on
#: first use, so this module depends on no layer)
PROVIDERS = {
    "repro.bench/1": "repro.obs.export",
    "repro.obs.flight/1": "repro.obs.perfetto",
    "repro.obs.timeseries/1": "repro.obs.timeseries",
    "repro.obs.inband/2": "repro.obs.inband",
    "repro.obs.regress/2": "repro.obs.regress",
    "repro.traffic/1": "repro.traffic.artifact",
    "repro.chaos/1": "repro.chaos.replay",
}


class SchemaError(ValueError):
    """A document does not conform to its ``repro.*/1`` schema."""


def fail(path: str, why: str) -> NoReturn:
    raise SchemaError(f"{path}: {why}")


@dataclass(frozen=True)
class Atom:
    """A leaf: an instance of ``types`` (a bool only where ``bool`` is
    listed), ``>= minimum`` and non-empty where asked."""

    expected: str
    types: Tuple[type, ...]
    minimum: Optional[int] = None
    nonempty: bool = False

    def accepts(self, value: Any) -> bool:
        if not isinstance(value, self.types):
            return False
        if isinstance(value, bool) and bool not in self.types:
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        return not self.nonempty or bool(value)


class Enum:
    """A leaf that is one of ``choices``."""

    def __init__(self, *choices: Any) -> None:
        self.choices = choices
        self.expected = f"one of {choices}"

    def accepts(self, value: Any) -> bool:
        return value in self.choices


@dataclass(frozen=True)
class Opt:
    """``spec``, or null / absent."""

    spec: Any


def Int(minimum: Optional[int] = None) -> Atom:
    return Atom("int" if minimum is None else f"int >= {minimum}", (int,), minimum)


INT = Int()
COUNT = Int(0)
NUM = Atom("number", (int, float))
NONNEG = Atom("non-negative number", (int, float), minimum=0)
STR = Atom("string", (str,))
NAME = Atom("non-empty string", (str,), nonempty=True)
BOOL = Atom("bool", (bool,))
SCALAR = Atom("scalar", (int, float, str, bool, type(None)))


@dataclass(frozen=True)
class Map:
    """An object of arbitrary keys (each matching the leaf ``keys``)
    whose values all match ``values``."""

    values: Any
    keys: Any = STR


def keys(spec: Any, *names: str) -> Dict[str, Any]:
    """``spec`` under each of ``names``, to spread into an object table:
    ``{**keys(COUNT, "sent", "lost"), "name": STR}``."""
    return dict.fromkeys(names, spec)


class Schema(NamedTuple):
    """One document family: its table, its cross-field hook, its text
    report, and how its file is laid out."""

    spec: Dict[str, Any]
    rules: Optional[Callable[[Dict[str, Any]], None]] = None
    render: Optional[Callable[[Dict[str, Any]], str]] = None
    #: spaces per level of the indented file, or None for the line
    #: layout (one line per top-level key and per top-level array item)
    indent: Optional[int] = 2
    sort_keys: bool = False


def _schema(tag: Any) -> Schema:
    if not isinstance(tag, str) or tag not in PROVIDERS:
        fail("$.schema", f"unknown schema {tag!r} (known: {', '.join(PROVIDERS)})")
    return importlib.import_module(PROVIDERS[tag]).ARTIFACT


def defect(spec: Any, value: Any) -> Optional[Tuple[str, str]]:
    """``(path suffix, why)`` of the first place ``value`` departs from
    ``spec``, else None: the walk :func:`check` raises from, for hooks
    that format their own path only on failure.  The suffix is assembled
    on the way out of a failure, so a conforming 20k-event trace formats
    no strings."""
    kind = type(spec)
    if kind is Atom or kind is Enum:
        if not spec.accepts(value):
            got = repr(value) if SCALAR.accepts(value) else type(value).__name__
            return "", f"expected {spec.expected}, got {got}"
    elif kind is dict:
        if not isinstance(value, dict):
            return "", "expected object"
        for key, sub in spec.items():
            bad = defect(sub, value.get(key))
            if bad:
                return f".{key}{bad[0]}", bad[1]
    elif kind is list:
        if not isinstance(value, list):
            return "", "expected array"
        for i, item in enumerate(value):
            bad = defect(spec[0], item)
            if bad:
                return f"[{i}]{bad[0]}", bad[1]
    elif kind is tuple:
        if not isinstance(value, list) or len(value) != len(spec):
            return "", f"expected array of {len(spec)} items"
        for i, (sub, item) in enumerate(zip(spec, value)):
            bad = defect(sub, item)
            if bad:
                return f"[{i}]{bad[0]}", bad[1]
    elif kind is Opt:
        return None if value is None else defect(spec.spec, value)
    else:  # Map
        if not isinstance(value, dict):
            return "", "expected object"
        for key, item in value.items():
            if not spec.keys.accepts(key):
                return "", f"key {key!r}: expected {spec.keys.expected}"
            bad = defect(spec.values, item)
            if bad:
                return f".{key}{bad[0]}", bad[1]
    return None


def check(spec: Any, value: Any, path: str) -> None:
    """Walk one sub-value against ``spec`` (for ``rules`` hooks whose
    field requirements depend on a sibling's value)."""
    bad = defect(spec, value)
    if bad:
        fail(path + bad[0], bad[1])


def validate(doc: Any, expect: Optional[str] = None) -> Dict[str, Any]:
    """Check ``doc`` against the schema its ``schema`` tag names -- which
    must be ``expect`` when given -- and return it unchanged."""
    if not isinstance(doc, dict):
        fail("$", f"expected object, got {type(doc).__name__}")
    tag = doc.get("schema")
    if expect is not None and tag != expect:
        fail("$.schema", f"expected {expect!r}, got {tag!r}")
    schema = _schema(tag)
    check(schema.spec, doc, "$")
    if schema.rules is not None:
        schema.rules(doc)
    return doc


def read(path: str, expect: Optional[str] = None) -> Dict[str, Any]:
    """Load and validate one artifact from disk; a file that cannot be
    read or is not JSON is a :class:`SchemaError` like any other defect."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        fail("$", f"unreadable: {exc}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        fail("$", f"not JSON: {exc}")
    return validate(doc, expect)


def render(doc: Any, expect: Optional[str] = None) -> str:
    """The text report of ``doc``, by the one renderer its schema
    declares; a schema that declares none reads as ``valid <tag>``."""
    schema = _schema(validate(doc, expect)["schema"])
    return schema.render(doc) if schema.render else f"valid {doc['schema']}"


def write(path: str, doc: Dict[str, Any]) -> None:
    """Validate ``doc`` and write it as newline-terminated JSON, creating
    the parent directory, in the layout its schema declares: ``indent``
    spaces per level or, where ``indent`` is None, the line layout --
    each top-level key on a line of its own and so each item of a
    top-level array, every line one C-encoded ``json.dumps``, so a
    run-sized trace is one event per line that ``grep`` reads."""
    schema = _schema(validate(doc)["schema"])
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        if schema.indent is not None:
            json.dump(doc, fh, indent=schema.indent, sort_keys=schema.sort_keys)
        else:
            encode = json.JSONEncoder(sort_keys=schema.sort_keys).encode
            sep = "{\n"
            for key in sorted(doc) if schema.sort_keys else doc:
                value = doc[key]
                if isinstance(value, list) and value:
                    fh.write(f"{sep}{encode(key)}: [\n{encode(value[0])}")
                    for item in value[1:]:
                        fh.write(",\n" + encode(item))
                    fh.write("\n]")
                else:
                    fh.write(f"{sep}{encode(key)}: {encode(value)}")
                sep = ",\n"
            fh.write("\n}")
        fh.write("\n")
