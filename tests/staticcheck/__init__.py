"""Fixtures of the rules in ``tests/test_discipline.py``: snippets posing
as a module of ``src/repro``, and mutants of the real tree.

Each ``test_*_rules.py`` is a table: a row ``test_name = case(snippets,
rules, line, module=, says=)`` is one test, so a row keeps its test id
when the table around it changes.
"""

import ast

from tests.test_discipline import check as check_tree


def check(source, module="repro.net.fixture"):
    return check_tree(module, ast.parse(source))


def case(snippets, rules=(), line=None, module="repro.net.fixture", says=None):
    """A test that each snippet (a string, or a tuple of them), posing as
    each module (a name, or a tuple of them), draws the findings
    ``rules``, in line order; ``line`` and ``says`` hold the first one's
    line and a piece of its message."""
    snippets = (snippets,) if isinstance(snippets, str) else snippets
    modules = (module,) if isinstance(module, str) else module

    def test():
        for source in snippets:
            for name in modules:
                found = check(source, name)
                assert [rule for _, rule, _ in found] == list(rules), (name, source)
                if line is not None:
                    assert found[0][0] == line
                if says is not None:
                    assert says in found[0][2]

    return test
