"""repro.traffic: flow-level workloads and the traffic SLO observatory.

The production question behind the paper's §6.7 blackout metric is
"how much user traffic does a reconfiguration cost at load?".  This
package answers it: seeded open-loop workloads over hundreds-to-
thousands of logical hosts, a flow-level fluid model over the live
forwarding tables (cross-validated against the per-packet oracle in
``tests/naive_traffic.py``), and a blackout-cost observatory windowed
against the reconfiguration tracer's epoch spans, exported as versioned
``repro.traffic/1`` artifacts.

Entry points: ``Network(traffic=...)`` wires a
:class:`~repro.traffic.engine.TrafficEngine` as ``network.traffic``;
``python -m repro.traffic run`` drives the canonical generate ->
converge -> load -> cut -> reconverge -> report scenario.
"""
