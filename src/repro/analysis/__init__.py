"""Analysis tools: the section 6.6 invariants and the doctor.

These operate on computed forwarding tables and topology descriptions
(statically) or on the running simulation (dynamically), and back the
chaos campaign, the test suite's property checks and the benchmark
harness.  Import the module you need (``repro.analysis.invariants``,
``.doctor``, ...): the package re-exports nothing, so asking for one
does not load the others.
"""
