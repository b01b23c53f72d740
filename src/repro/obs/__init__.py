"""repro.obs -- the simulation-wide telemetry layer.

Built for the debugging story of section 6.7 -- each switch keeps a log,
the logs are retrieved, one tool reads them -- and the bench-trajectory
needs of ROADMAP.md.  Observers record into documents; text for people
is rendered from the documents, never from a live network.  Hot paths
keep plain integer attributes that ``Network.telemetry()`` reads at
snapshot time, so the data plane pays nothing per packet for
observability.  Import the submodule you need (the package root
re-exports nothing):

* :mod:`repro.obs.spans` -- span-style reconfiguration tracing: the §6.7
  merged log turned into structured spans (trigger -> epoch start -> tree
  stable -> topology at root -> tables loaded -> reopen) with per-switch
  and per-host blackout intervals.
* :mod:`repro.obs.artifact` -- the one artifact envelope: every
  ``repro.*/1`` document below is a schema table validated, read,
  written and rendered by its ``validate`` / ``read`` / ``write`` /
  ``render``; each provider module holds the one renderer of its
  document beside its schema.
* :mod:`repro.obs.export` -- the stable JSON schema every benchmark emits
  through ``benchmarks/bench_util.py``, so runs are machine-readable,
  and ``render_telemetry`` for a ``Network.telemetry()`` snapshot.
* :mod:`repro.obs.flight` -- the flight recorder: causally-linked events
  (message sends/receives, port transitions, timers, epoch phases, table
  loads) in bounded per-component rings, with ``why``/``wave`` queries.
* :mod:`repro.obs.perfetto` -- Chrome ``trace_event`` / Perfetto export
  of a flight recording (``repro.obs.flight/1``) and its offline
  "why did this switch load its table" report.
* :mod:`repro.obs.profiler` -- the event-loop profiler: wall-clock and
  event counts per handler category, and the ``events_per_sec`` baseline.
* :mod:`repro.obs.timeseries` -- the longitudinal sampler: periodic
  in-sim sampling of FIFO occupancy, port states, epochs, and
  blackout flags into bounded rings, exported
  as ``repro.obs.timeseries/1`` with a select/window query API; its
  report is the dashboard frame at the last tick (per-switch sparklines).
* :mod:`repro.obs.regress` -- the bench-regression gate: an exact differ
  between a fresh ``repro.bench/1`` document and its committed baseline
  whose ``repro.obs.regress/2`` verdict CI gates on.
* :mod:`repro.obs.inband` -- in-band path telemetry: enabled data packets
  carry a bounded per-hop record stack (switch, ports, FIFO depth,
  timestamp); the host side folds delivered stacks into per-flow path
  records, link congestion tables, and delivery-SLO windows aligned to
  reconfiguration epochs, exported as ``repro.obs.inband/2``.
* :mod:`repro.obs.control` -- control-plane cost accounting: per-epoch
  counters of control-packet volume by message type and reconfiguration
  phase (election / loading / steady), plus retransmission and SRP
  tallies, behind the ``sim.control`` null fast path.
* :mod:`repro.obs.sweep` -- the scaling observatory: the one measured
  scenario (:mod:`repro.scenario`) run across a topology ladder (tori,
  fat-trees, DCells), recording convergence, blackout, control volume and
  FIFO depth per rung, with log-log slope fits per metric, as the
  ``repro.bench/1`` document ``scaling``.

``python -m repro.obs`` exposes ``run`` (the one scenario, every
observer on, every document written), ``report`` (any ``repro.*/1`` file
or directory as text), ``validate``, ``regress`` and ``sweep``.

Which observer answers which question is executable:
``tests/obs/test_questions.py`` states each question as a query over one
``run`` directory, and its ``NEEDS`` table (checked by ablation: drop a
document or section, see which questions lose their answer) is what
keeps each observer here.
"""
