"""The north star's "net ``src/`` line count" as a ratchet.

``BUDGET`` is the total this tree had when the constant was last set.
Deleting code leaves slack -- lower the constant to bank it.  Raising it
is allowed only in a PR that says what the extra lines buy (ROADMAP:
"the same behaviour and speed from the simplest design and the least
code"; tooling is already ~1.7x the protocol it wraps).
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: physical lines under src/repro/**/*.py (PR 12: 23 369 -> 22 994; PR 13,
#: one TopologyIndex for neighbours/direction/next hops: -> 22 902; PR 15,
#: the status word and free-port vector as ints, dead net/ code out:
#: -> 22 887; PR 16, one scenario driver and an exact regress gate:
#: -> 22 321; PR 17, staticcheck without its cache, second pass protocol
#: and sharding inventory: -> 21 782; PR 18, two markers on the wire: the
#: list-free _program_boundary costs +24, dead per-packet state, the
#: three-copy enqueue/abort idioms and the sinks' no-op markers pay for
#: it: -> 21 778; PR 19, documents in, text out: the five scenario CLIs,
#: the doctor's live-network renderers, the live watch driver and the
#: obs package re-exports go, one renderer per schema stays: -> 21 255;
#: PR 20, rows not cells and no graph library: topology/graph.py (94) and
#: Kahn's is_acyclic are paid for by the cell loops, the per-sweep dedup
#: sets, both pretruncated paths, remove_entry/entries(), the inline
#: flood fill and BFS copies, and analysis/__init__'s unused re-exports:
#: -> 21 241; PR 21, the fluid plan per switch pair: Pair, cable_hops and
#: the counted water-fill are paid for by traffic/__init__'s unused
#: re-exports, FlowRun.rate/path/walked, port_owner_map, total_generation,
#: the stored pending counter and the second cancel-completion copy:
#: -> 21 237; PR 22, staticcheck is its per-file rules: staticcheck/dataflow
#: (call graph, taint, port-FSM linter, write-reachability: 1 440) goes on
#: the mutation table's evidence with -q/-v and render_text's verbose
#: branch, no file moved out of src/; Monitoring._transition consulting
#: Figure 8's tables and the good -> who -> loop route cost +10: -> 19 793;
#: PR 23, a reader outside tests/ or it goes -- of the 1 400 lines that
#: left, 784 were RE-HOMED to benchmarks/rigs/ (the three rigs, the token
#: ring, the routing ablations and their two package __init__s) and ~120
#: to tests/checkers.py (the nine checkers only tests call), which is not
#: a reduction; the other ~495 are deleted: six option classes and their
#: six-form coerce turned into 38 constants, 35 reader-less members, the
#: registry's series cap, TaskScheduler.run_after and its resolution,
#: RS307, RS304's capacity half and eight CLI flags: -> 18 393; PR 24, the
#: control processors' FIFO run queue: the deque, `_arrive`/`_wake`/`_start`
#: and Periodic's pass-through arguments cost +20 in sim/timers.py, paid
#: for by Simulator's idle hooks (their only reader was a test checker)
#: and TaskScheduler.cpu_time_used: -> 18 384; then a world is a value:
#: bound methods for ~50 closures, the id counters on Simulator and an
#: explicit msg_id/packet_id at each construction site, paid for by
#: Network.apply_fault/FAULT_KINDS, the per-event fault_params copies and
#: the two bridges' duplicated forwarding CPU: -> 18 374; then an event is
#: three slots: EventHandle, Simulator._seq/stop()/max_events and
#: _pop_runnable's push-back go, run() drains a bucket inline: -> 18 321;
#: then one FIFO pass per state change: _desired_drain_rate,
#: _effective_in_rate and _program_boundary fold into _recompute, the
#: never-taken catch-up branch and FifoPacket.available go, the UP/NOISY
#: fast path in Link.send_begin/send_end costs +8: -> 18 319; then one
#: home for the AST discipline: src/repro/staticcheck (1 963) left src/ --
#: the sixteen rules' logic was RE-HOMED as ~540 lines of checks in
#: tests/test_discipline.py, the other ~1 420 (Pass/Rule/Finding/Project,
#: the CLI, the report and baseline schemas) DELETED -- plus a net -5 of
#: Schedule.to_json (its only name-reader was the linter) and the two
#: schema providers: -> 16 351; then observer documents in the line
#: layout: the layout (+17 in artifact.write) is paid for by one
#: message-slice literal for send and receive and one track-metadata
#: helper for the three copies in perfetto: -> 16 334; then one scaling
#: measurement, one document: the sweep writes repro.bench/1, and its own
#: schema, SweepPoint, metric lists and renderer go: -> 16 211; then the
#: observers, audited by question: of watch.py's 253 lines, 171 were
#: RE-HOMED into timeseries.py beside render_timeseries (the frame
#: renderer, minus the parameters no caller set); DELETED: the replay and
#: its CLI subcommand, perfetto's path trace, the in-band recent ring, and
#: the methods the tightened readers rule finds dead (TopologySpec.degree,
#: PortState.usable, TimeSeries.names/load, MultiLan.first and with it
#: get_info, SchedulingEngine.pending); ReconfigTracer.windows costs +10:
#: -> 15 933; then one home for the section 6.6 invariants: deadlock.py and
#: the body of chaos/checks.py are MOVED into analysis/invariants.py (a
#: move counts for nothing), and what goes is DELETED -- the three module
#: docstrings become one, chaos/checks.py is a five-name re-export,
#: CampaignRunner(extra_checks=), the campaign's inline traffic-SLO block
#: (now quiescent_checks' last step), _merge_counts (Counter.update) and
#: operational_components(include_noisy=); the doctor's per-view epoch
#: comparison costs +4: -> 15 883; then a cheaper pass per packet hop:
#: the comparisons that replace min/max/abs in the receive FIFO, its
#: whole-tail rule and the latched flow-control gate are paid for inside
#: net/ -- LinkUnit.set_drain_source (an attribute now), Link's unread
#: noise_corruption, the one-branch end_packet and the tuple-free _route
#: copies in send_begin/send_end/send_rate/send_flow_control: -> 15 881;
#: then end markers only where they carry news: the FIFO's closing rule
#: and tail-whole boundary, Endpoint.needs_end_marker and Link.changes
#: cost +28 in net/, paid for by the per-grant wait histogram
#: (SchedulingEngine.wait_hist, Request.queued_at, its install in
#: network.py), what only it used in obs/registry.py (the histogram
#: factory and _get, the null histogram's members, DEFAULT_BUCKETS) and
#: the three reset copies folded into ReceiveFifo.clear(): -> 15 873;
#: then one fault count and no metrics registry: obs/registry.py (253)
#: goes -- its labelled counters, null instrument, collectors and
#: value/counters/total/snapshot, the sampler's registry walk, its
#: per-tick padding pass and its ring factory (one caller left), the
#: Injector's own fault count and hook -- pays for the Faults counter
#: on Network and the latency Histogram moved beside its one user in
#: traffic/engine.py: -> 15 652; then an observed run holds what it
#: recorded: one deque-backed Ring for every observer history (the two
#: preallocating rings and their index arithmetic, the sampler's second
#: mark list, the in-band drop counters) and the recursive defect walk
#: with the leaves' accepts methods pay for the spec compiler, the
#: largest-remainder share column and the comparison peek_level: -> 15 641;
#: then the section 6.6 protocol as one step function: the isinstance
#: chain in Autopilot._process becomes one type lookup and
#: ReconfigEngine.receive, the two send bodies and _record_send become
#: send_addressed (the packet type a class attribute of the message), the
#: tree-position message and the compute-and-load are built in one place
#: each, and ControlMessage.needs_ack goes: -> 15 588; then one bridge,
#: two attachments: AutonetEthernetBridge and AutonetAutonetBridge become
#: one Bridge over an Autonet or Ethernet attachment per end (bridge.py
#: 394 -> 272), and SpanTracer folds into ReconfigTracer: -> 15 453; then
#: whole packets wait in a TransmitQueue: the receive FIFO's subclass with
#: a drain-only pass (+61) is paid for by enqueue_buffered, the Crossbar
#: class and _fifo_for, the switch's per-port lists, Network.converged's
#: one subset test per view, TreePosition as a named tuple,
#: Autopilot.short_address, HostPort.enqueue and call_soon over after:
#: -> 15 378; then experiment code leaves src/: obs/sweep.py,
#: obs/regress.py and analysis/capacity.py are RE-HOMED under benchmarks/
#: (a move counts for nothing), and what the move made unnecessary is
#: DELETED -- the repro.obs regress and sweep subcommands, the regress/2
#: verdict schema, the sweep's own boot/cut/reconverge driver, its traffic
#: mode and ladder check, the capacity next_hops override; the receive
#: FIFO's end marker closing whatever entry is arriving costs +2: -> 14 680;
#: then one identity manifest: the four timeseries queries only tests read
#: (TimeSeriesSampler.view, SeriesData.window/min/max, and with them
#: TimeSeries.from_document) are RE-HOMED to tests/checkers.py, and the
#: chaos CLI shrinking toward the same violation costs +19: -> 14 673;
#: then one bench record: analysis/metrics.py goes -- rate_mbps RE-HOMED
#: to its one bench, format_table moved beside render_bench, mean
#: DELETED -- and the traffic SLO leaves quiescent_checks for the
#: campaign, checked only when a schedule asks for a workload: -> 14 653;
#: then MultiLan takes its LANs at construction (attach_autonet/ethernet
#: and the two id dicts go) and a missing or unknown subcommand is
#: argparse's exit 2 (scenario.report_unknown_subcommand goes): -> 14 586;
#: then the crossbar scans inside the kick and a grant inside the request
#: pass only names the drain (+10), paid for by nine stores nothing read
#: and five packages' re-exports nothing imported, DELETED: -> this)
BUDGET = 14472


#: README and DESIGN.md describe the current system, and a change leaves
#: each no longer than it found it (ROADMAP): their line counts when the
#: constant was last set, which only go down
DOC_CEILINGS = {"README.md": 1250, "DESIGN.md": 1607}


def _lines(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh)


def test_src_line_count_stays_within_budget():
    per_package = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        per_package[package] = per_package.get(package, 0) + _lines(path)
    total = sum(per_package.values())
    for package, count in sorted(per_package.items()):
        print(f"{package:<14} {count:>6}")
    print(f"{'total':<14} {total:>6}  (budget {BUDGET})")
    assert total <= BUDGET, (
        f"src/repro grew to {total} lines, over the {BUDGET}-line budget: "
        "delete something, or raise BUDGET in a PR that states the reason"
    )


def test_the_two_long_documents_stay_within_their_ceilings():
    for name, ceiling in DOC_CEILINGS.items():
        assert _lines(ROOT / name) <= ceiling, f"{name} grew past its {ceiling}-line ceiling"
