"""One artifact envelope: every ``repro.*/1`` document is checked, read,
written and rendered here.

The paper's §6.7 debugging story is one merged log read by one tool.
The repo's equivalent is a family of JSON documents (bench tables,
flight traces, timeseries, in-band telemetry, traffic SLOs, chaos
reproducers), each tagged ``"schema": "repro.x/1"``.
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

Each spec is compiled once, where it is declared (:func:`compile_spec`).
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
from typing import Any, Callable, Dict, NoReturn, Optional, Tuple

#: schema tag -> the module whose ``ARTIFACT`` declares it (imported on
#: first use, so this module depends on no layer)
PROVIDERS = {
    "repro.bench/1": "repro.obs.export",
    "repro.obs.flight/1": "repro.obs.perfetto",
    "repro.obs.timeseries/1": "repro.obs.timeseries",
    "repro.obs.inband/2": "repro.obs.inband",
    "repro.traffic/1": "repro.traffic.artifact",
    "repro.chaos/1": "repro.chaos.replay",
}


class SchemaError(ValueError):
    """A document does not conform to its ``repro.*/1`` schema."""


def fail(path: str, why: str) -> NoReturn:
    raise SchemaError(f"{path}: {why}")


#: a compiled spec: ``(path suffix, why)`` of the first place a value
#: departs from it, else None
Walk = Callable[[Any], Optional[Tuple[str, str]]]


@dataclass(frozen=True)
class Atom:
    """A leaf: an instance of ``types`` (a bool only where ``bool`` is
    listed), ``>= minimum`` and non-empty where asked."""

    expected: str
    types: Tuple[type, ...]
    minimum: Optional[int] = None
    nonempty: bool = False

    def __post_init__(self) -> None:
        types, minimum, nonempty = self.types, self.minimum, self.nonempty
        bools = bool in types

        def atom(value: Any) -> Optional[Tuple[str, str]]:
            if (
                isinstance(value, types)
                and (bools or (value is not True and value is not False))
                and (minimum is None or not value < minimum)
                and (not nonempty or value)
            ):
                return None
            return _rejected(self, value)

        object.__setattr__(self, "walk", atom)


class Enum:
    """A leaf that is one of ``choices``."""

    def __init__(self, *choices: Any) -> None:
        self.choices = choices
        self.expected = f"one of {choices}"
        self.walk: Walk = lambda value: None if value in choices else _rejected(self, value)


def _rejected(leaf: Any, value: Any) -> Tuple[str, str]:
    got = repr(value) if isinstance(value, SCALAR.types) else type(value).__name__
    return "", f"expected {leaf.expected}, got {got}"


@dataclass(frozen=True)
class Opt:
    """``spec``, or null / absent."""

    spec: Any

    def __post_init__(self) -> None:
        inner = compile_spec(self.spec)
        object.__setattr__(self, "walk", lambda value: None if value is None else inner(value))


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

    def __post_init__(self) -> None:
        key_walk, values = self.keys.walk, compile_spec(self.values)
        bad_key = f": expected {self.keys.expected}"

        def mapping(value: Any) -> Optional[Tuple[str, str]]:
            if not isinstance(value, dict):
                return "", "expected object"
            for key, item in value.items():
                if key_walk(key):
                    return "", f"key {key!r}{bad_key}"
                bad = values(item)
                if bad:
                    return f".{key}{bad[0]}", bad[1]
            return None

        object.__setattr__(self, "walk", mapping)


def keys(spec: Any, *names: str) -> Dict[str, Any]:
    """``spec`` under each of ``names``, to spread into an object table:
    ``{**keys(COUNT, "sent", "lost"), "name": STR}``."""
    return dict.fromkeys(names, spec)


def compile_spec(spec: Any) -> Walk:
    """``spec`` compiled into one closure per node, so a walk pays no
    dispatch on the spec's type per value; the suffix is built on the way
    out of a failure, so a conforming 20k-event trace formats no strings.
    A leaf, ``Opt`` or ``Map`` compiles itself when built, and every
    table that holds it shares that walk."""
    kind = type(spec)
    if kind is dict:
        fields = [(key, f".{key}", compile_spec(sub)) for key, sub in spec.items()]

        def obj(value: Any) -> Optional[Tuple[str, str]]:
            if not isinstance(value, dict):
                return "", "expected object"
            for key, dot, walk in fields:
                bad = walk(value.get(key))
                if bad:
                    return dot + bad[0], bad[1]
            return None

        return obj
    if kind is list:
        each = compile_spec(spec[0])

        def array(value: Any) -> Optional[Tuple[str, str]]:
            if not isinstance(value, list):
                return "", "expected array"
            for i, bad in enumerate(map(each, value)):
                if bad:
                    return f"[{i}]{bad[0]}", bad[1]
            return None

        return array
    if kind is tuple:
        items = [compile_spec(sub) for sub in spec]
        short = f"expected array of {len(spec)} items"

        def fixed(value: Any) -> Optional[Tuple[str, str]]:
            if not isinstance(value, list) or len(value) != len(items):
                return "", short
            for i, walk in enumerate(items):
                bad = walk(value[i])
                if bad:
                    return f"[{i}]{bad[0]}", bad[1]
            return None

        return fixed
    return spec.walk  # a leaf, Opt or Map


@dataclass
class Schema:
    """One document family: its table and the walk compiled from it, its
    cross-field hook, its text report, and how its file is laid out."""

    spec: Dict[str, Any]
    rules: Optional[Callable[[Dict[str, Any]], None]] = None
    render: Optional[Callable[[Dict[str, Any]], str]] = None
    #: spaces per level of the indented file, or None for the line
    #: layout (one line per top-level key and per top-level array item)
    indent: Optional[int] = 2
    sort_keys: bool = False

    def __post_init__(self) -> None:
        self.walk = compile_spec(self.spec)


def _schema(tag: Any) -> Schema:
    if not isinstance(tag, str) or tag not in PROVIDERS:
        fail("$.schema", f"unknown schema {tag!r} (known: {', '.join(PROVIDERS)})")
    return importlib.import_module(PROVIDERS[tag]).ARTIFACT


def validate(doc: Any, expect: Optional[str] = None) -> Dict[str, Any]:
    """Check ``doc`` against the schema its ``schema`` tag names -- which
    must be ``expect`` when given -- and return it unchanged."""
    if not isinstance(doc, dict):
        fail("$", f"expected object, got {type(doc).__name__}")
    tag = doc.get("schema")
    if expect is not None and tag != expect:
        fail("$.schema", f"expected {expect!r}, got {tag!r}")
    schema = _schema(tag)
    bad = schema.walk(doc)
    if bad:
        fail("$" + bad[0], bad[1])
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


def render(doc: Any) -> str:
    """The text report of ``doc``, by the one renderer its schema
    declares; a schema that declares none reads as ``valid <tag>``."""
    schema = _schema(validate(doc)["schema"])
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
