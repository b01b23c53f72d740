"""``repro.staticcheck``: determinism & protocol-discipline linter.

A pure-stdlib :mod:`ast` analysis suite that proves this repo's replay
contract statically instead of waiting for the CI double-run (or a
nightly chaos campaign) to flake:

* **RS1xx determinism** -- no wall clock, no global randomness, no
  hash-ordered iteration feeding the event schedule.
* **RS2xx event-handler purity** -- no blocking I/O or prints on the hot
  path, no cross-component state writes.
* **RS3xx observability discipline** -- literal metric names, bounded
  label cardinality, the one-load + ``None``-test recorder pattern.
* **RS4xx mutable-state hygiene** -- no mutable defaults, no module-level
  mutable containers in the simulator's packages.

Every family is a :class:`Pass` whose rules match one file at a time;
each run recomputes everything from the source and keeps nothing between
runs.  Each rule holds a mutant of the real tree it flags
(``tests/staticcheck/mutation_audit.py``; the table is in DESIGN.md),
and what no per-file rule can see is held by the running code instead:
``Monitoring._transition`` consults Figure 8's tables, the hash-seed
``cmp`` of the CI ``determinism`` job catches a laundered ``hash()``.

Run it with ``python -m repro.staticcheck src``; grandfather intentional
exceptions in ``staticcheck-baseline.json`` (one justification each).
"""

from repro.staticcheck.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    Suppression,
    find_default_baseline,
)
from repro.staticcheck.framework import (
    Finding,
    ParsedModule,
    Pass,
    Rule,
    SuiteResult,
    all_rules,
    check_source,
    check_sources,
    default_passes,
    run_suite,
    suppression_in_scope,
)
from repro.staticcheck.report import SCHEMA, build_report, render_github, render_text

__all__ = [
    "BASELINE_SCHEMA",
    "Baseline",
    "Finding",
    "ParsedModule",
    "Pass",
    "Rule",
    "SCHEMA",
    "SuiteResult",
    "Suppression",
    "all_rules",
    "build_report",
    "check_source",
    "check_sources",
    "default_passes",
    "find_default_baseline",
    "render_github",
    "render_text",
    "run_suite",
    "suppression_in_scope",
]
