"""Every rule flags its mutants of the real tree, and every mutant keeps
the static verdict the mutation table in DESIGN.md records
(``mutation_audit.py --static``)."""

from tests.staticcheck.mutation_audit import run_static


def test_every_mutant_gets_its_recorded_static_verdict():
    assert run_static() == 0
