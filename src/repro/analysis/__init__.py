"""Analysis tools: deadlock-freedom proofs, invariant checks, metrics.

These operate on computed forwarding tables and topology descriptions
(statically) or on the running simulation (dynamically), and back both the
test suite's property checks and the benchmark harness.  Import the
module you need (``repro.analysis.deadlock``, ``.invariants``, ...): the
package re-exports nothing, so asking for one does not load the others.
"""
