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
* **RS4xx mutable-state hygiene** -- no mutable defaults, no hot-path
  module globals.
* **RS5xx whole-program dataflow** -- nondeterminism tainting the event
  schedule across function and module boundaries; port-FSM conformance.
* **RS6xx shared module state** -- module-level mutable state written
  from code reachable from chaos campaigns and event handlers.

Every family is a :class:`Pass` over one parsed project
(:mod:`repro.staticcheck.dataflow`): RS1xx-RS4xx match one file at a
time, RS5xx/RS6xx follow the whole-program call graph.  Each run
recomputes everything from the source; nothing is kept between runs.

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
