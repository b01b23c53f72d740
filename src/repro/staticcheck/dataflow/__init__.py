"""Whole-program dataflow layer for :mod:`repro.staticcheck`.

The RS1xx-RS4xx rules are per-file pattern matches; this package holds
the project model every pass runs over and the project-wide analyses a
per-file match cannot express:

* :mod:`~repro.staticcheck.dataflow.callgraph` -- the :class:`Project`
  model: every parsed module, a module-qualified function/class index,
  and a call graph with method, ``super()``, decorator, lambda and
  import-alias resolution.
* :mod:`~repro.staticcheck.dataflow.taint` -- RS50x: interprocedural
  nondeterminism taint (wall clock, OS entropy, the global ``random``
  stream, ``id()``/``hash()`` keys) propagated through returns,
  arguments and attribute stores into scheduler / packet-emission /
  RNG-seed sinks.
* :mod:`~repro.staticcheck.dataflow.fsm` -- RS51x: port-state-machine
  conformance against the :mod:`repro.core.portstate` transition tables.
* :mod:`~repro.staticcheck.dataflow.parallel` -- RS6xx: module-level
  mutable state written from code reachable from ``repro.chaos``
  campaign entry points and event handlers.
"""

from repro.staticcheck.dataflow.callgraph import CallGraph, Project
from repro.staticcheck.dataflow.fsm import PortFsmPass
from repro.staticcheck.dataflow.parallel import ParallelReadinessPass
from repro.staticcheck.dataflow.taint import TaintPass

__all__ = [
    "CallGraph",
    "Project",
    "TaintPass",
    "PortFsmPass",
    "ParallelReadinessPass",
]
