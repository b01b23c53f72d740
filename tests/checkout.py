"""One parse of a checkout, shared by every test that reads the source.

``tests/test_readers.py`` asks what reads each public name and
``tests/test_discipline.py`` asks what each file does; both take their
syntax trees from :func:`parse`, so a session parses each file once.
"""

import ast
import functools
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: the python trees of a checkout
ROOTS = ("src", "benchmarks", "examples", "tests")


class Source(NamedTuple):
    #: posix path relative to the checkout, as a failure message names it
    path: str
    tree: ast.Module


def module_name(path):
    """Dotted name of a checkout-relative path: ``src/repro/net/__init__.py``
    is ``repro.net``, ``tests/test_x.py`` is ``tests.test_x``."""
    parts = Path(path).with_suffix("").parts
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@functools.lru_cache(maxsize=None)
def parse(root=ROOT):
    """``{module: Source}`` for every ``*.py`` under :data:`ROOTS`, in path
    order.  Cached: every caller shares the one dict, so none changes it."""
    root = Path(root)
    found = {}
    for top in ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            found[module_name(relative)] = Source(relative, ast.parse(path.read_text()))
    return found
