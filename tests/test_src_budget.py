"""The north star's "net ``src/`` line count" as a ratchet.

``BUDGET`` is the total this tree had when the constant was last set.
Deleting code leaves slack -- lower the constant to bank it.  Raising it
is allowed only in a PR that says what the extra lines buy (ROADMAP:
"the same behaviour and speed from the simplest design and the least
code"; tooling is already ~1.7x the protocol it wraps).
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
#: helper for the three copies in perfetto: -> this)
BUDGET = 16334


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
