"""Fixtures of the rules in ``tests/test_discipline.py``: snippets posing
as a module of ``src/repro``, and mutants of the real tree."""

import ast

from tests.test_discipline import check as check_tree


def check(source, module="repro.net.fixture"):
    return check_tree(module, ast.parse(source))


def rules_of(findings):
    return sorted({rule for _, rule, _ in findings})
