"""The quiescent checks under the names ``benchmarks/e2e/`` reads.

They live in :mod:`repro.analysis.invariants`; this module only
re-exports them while the benchmark harness is frozen, and goes at its
thaw (ROADMAP item 1(b)).
"""

from repro.analysis.invariants import (  # noqa: F401
    CheckReport,
    check_oracle_agreement,
    check_partition_routing,
    check_spans,
    quiescent_checks,
)
