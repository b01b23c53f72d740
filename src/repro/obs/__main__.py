"""CLI for the flight recorder and the event-loop profiler.

.. code-block:: console

    # run a scenario and export the Perfetto/Chrome trace
    python -m repro.obs export --topo ring-4 --cut 0-1

    # print the causal chain behind every switch's table load
    python -m repro.obs why --topo ring-4 --cut 0-1

    # the CI throughput baseline: hotspots + events_per_sec as repro.bench/1
    python -m repro.obs profile --topo torus-3x4 --cut 0-1 --json profile.json

    # live dashboard: sparklines per switch while the sim reconfigures
    python -m repro.obs watch --topo torus-3x4 --cut 0-1 --duration 5

    # replay a recorded timeseries artifact
    python -m repro.obs watch --replay torus-3x4.timeseries.json

    # gate: diff a fresh bench document against committed baselines
    python -m repro.obs regress --current bench.json \
        --baseline benchmarks/results/baselines

    # in-band path telemetry: per-flow paths, p50/p99, congested links
    python -m repro.obs paths --topo torus-3x4 --cut 0-1

    # structural gate for any repro.*/1 artifact (dispatches on the tag)
    python -m repro.obs validate bench.json sweep.json traffic.json

Each scenario subcommand runs the same scenario: build the topology,
converge, apply the requested link cuts, reconverge.  ``export`` writes
a ``repro.obs.flight/1`` document loadable at https://ui.perfetto.dev;
``why`` answers section 6.7's question ("why did this epoch happen?")
from the recorded parent chain; ``profile`` measures the simulator
itself; ``watch`` renders the time-series sampler live (or replays an
artifact); ``regress`` holds a ``repro.bench/1`` document equal to its
committed baseline, metric by metric, and exits non-zero otherwise; ``sweep``
climbs a topology ladder and writes ``repro.obs.sweep/1`` scaling
curves (convergence, blackout, control-plane cost versus size);
``validate`` checks any ``repro.*/1`` file against the schema its tag
names (:mod:`repro.obs.artifact`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.constants import MS, SEC
from repro.network import Network
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result
from repro.obs.flight import CAT_EPOCH, CAT_PORT, render_chain
from repro.obs.perfetto import path_trace_document
from repro.obs.regress import compare, read_baseline, render_verdict
from repro.obs.sweep import LADDERS, render_sweep, run_sweep
from repro.obs.timeseries import TimeSeries, TimeSeriesConfig
from repro.obs.watch import watch_live, watch_replay
from repro.scenario import (
    attach_pair,
    drive_scenario,
    fmt_ns,
    parse_cut,
    report_unknown_subcommand,
)
from repro.topology.generators import TOPOLOGY_FAMILIES, resolve_topology


def _fmt_path(path, max_hops: int = 6) -> str:
    shown = [
        f"{sw}:p{inp}>" + "/".join(f"p{o}" for o in outs)
        for sw, inp, outs in path[:max_hops]
    ]
    if len(path) > max_hops:
        shown.append(f"... +{len(path) - max_hops} hops")
    return " | ".join(shown) if shown else "(no hops)"


def _cmd_paths(args) -> int:
    spec = resolve_topology(args.topo)
    net = Network(spec, seed=args.seed, inband=True)
    sinks = attach_pair(net, int(args.period * MS), args.bytes)
    cuts = args.cut or [(0, 1)]
    drive_scenario(net, cuts, load_ns=int(args.duration * SEC))

    doc = net.inband_doc()
    uid_names = {sink.localnet.uid.value: f"h{i}" for i, sink in enumerate(sinks)}

    def who(uid: int) -> str:
        return uid_names.get(uid, f"{uid:012x}")

    cut_list = " ".join(f"{a}-{b}" for a, b in cuts)
    print(
        f"in-band path telemetry on {args.topo} (seed {args.seed}, "
        f"cut {cut_list})"
    )
    print(
        f"  {doc['hops_recorded']} hop records on {doc['slo']['deliveries']} "
        f"deliveries, {doc['hops_truncated']} truncated"
    )
    print()
    print("flows:")
    for flow in doc["flows"]:
        print(
            f"  {who(flow['src_uid'])} -> {who(flow['dest_uid'])}: "
            f"{flow['deliveries']} delivered, "
            f"p50 {fmt_ns(flow['latency_p50_ns'])} "
            f"p99 {fmt_ns(flow['latency_p99_ns'])}, "
            f"{flow['paths_seen']} path(s)"
        )
        print(f"    path: {_fmt_path(flow['path'])}")
        for change in flow["changes"]:
            epoch = change["epoch"]
            print(
                f"    change @ +{change['t_ns'] / 1e9:.3f}s"
                f"{f' (epoch {epoch})' if epoch is not None else ''}: "
                f"{_fmt_path(change['to'])}"
            )
    changes = sum(len(flow["changes"]) for flow in doc["flows"])
    print(f"  {changes} path change(s) detected")
    print()
    print("top congested links (mean FIFO depth at forwarding):")
    top = sorted(doc["links"], key=lambda e: (-e["mean_depth"], e["link"]))
    for entry in top[: args.top]:
        drops = f", {entry['drops']} queue drops" if entry["drops"] else ""
        print(
            f"  {entry['link']:<10} {entry['samples']:>6} samples  "
            f"mean {entry['mean_depth']:.0f}B  max {entry['max_depth']:.0f}B"
            f"{drops}"
        )
    print()
    slo = doc["slo"]
    print(
        f"slo: {slo['deliveries']} delivered "
        f"({slo['delivered_bytes']} data bytes), "
        f"p50 {fmt_ns(slo['p50_ns'])} p99 {fmt_ns(slo['p99_ns'])}, "
        f"drops {slo['drops'] or '{}'}"
    )
    for window in slo["windows"]:
        if window["max_blackout_ns"] is None:
            continue
        print(
            f"  epoch {window['epoch']} "
            f"[+{window['start_ns'] / 1e9:.3f}s..+{window['end_ns'] / 1e9:.3f}s] "
            f"blackout {fmt_ns(window['max_blackout_ns'])}: "
            f"{window['deliveries']} delivered, {window['drops']} dropped, "
            f"goodput {window['goodput_bytes']}B"
        )
    if args.out:
        artifact.write(args.out, doc)
        print(f"\nwrote {args.out}")
    if args.trace:
        artifact.write(args.trace, path_trace_document(doc, name=f"paths {args.topo}"))
        print(f"wrote {args.trace} -- load it at https://ui.perfetto.dev")
    return 0


def _table_load_chains(net: Network):
    """(epoch, [(switch, chain)]) for the final epoch's table loads."""
    rec = net.flight
    final = rec.last(category=CAT_EPOCH, name="table-loaded")
    if final is None:
        return None, []
    epoch = final.attrs.get("epoch")
    chains = []
    for event in rec.events(category=CAT_EPOCH, name="table-loaded", epoch=epoch):
        chains.append((event.component, rec.why(event)))
    return epoch, chains


def _cmd_export(args) -> int:
    net = Network(
        resolve_topology(args.topo), seed=args.seed, flight=True, flight_capacity=args.capacity
    )
    drive_scenario(net, args.cut)
    out = args.out or f"{args.topo}.trace.json"
    doc = net.flight_trace()
    artifact.write(out, doc)
    rec = net.flight
    flows = sum(1 for e in doc["traceEvents"] if e.get("ph") == "s")
    print(
        f"wrote {out}: {len(doc['traceEvents'])} trace events "
        f"({rec.total_recorded} recorded, {rec.total_dropped} dropped, "
        f"{flows} message flows) -- load it at https://ui.perfetto.dev"
    )
    epoch, chains = _table_load_chains(net)
    if epoch is not None:
        rooted = sum(
            1
            for _sw, chain in chains
            if any(e.category == CAT_PORT for e in chain)
        )
        print(
            f"epoch {epoch}: {len(chains)} table loads, "
            f"{rooted} causally rooted at a port-state transition"
        )
    return 0


def _cmd_why(args) -> int:
    net = Network(
        resolve_topology(args.topo), seed=args.seed, flight=True, flight_capacity=args.capacity
    )
    drive_scenario(net, args.cut)
    epoch, chains = _table_load_chains(net)
    if epoch is None:
        print("no table-loaded events were recorded")
        return 1
    print(f"message wave of epoch {epoch} (first arrival per switch):")
    for entry in net.flight.wave(epoch):
        print(
            f"  {entry['t_ns'] / 1e6:>10.3f} ms  {entry['component']}"
            f"  ({entry['event']})"
        )
    for switch, chain in chains:
        print()
        print(f"why did {switch} load its table in epoch {epoch}?")
        print(render_chain(chain))
    return 0


def _cmd_profile(args) -> int:
    net = Network(
        resolve_topology(args.topo),
        seed=args.seed,
        flight=args.trace is not None,
        flight_capacity=args.capacity,
        profile=True,
    )
    drive_scenario(net, args.cut)
    profiler = net.profiler
    print(profiler.render())
    if args.trace:
        net.export_flight_trace(args.trace)
        print(f"wrote {args.trace}")
    if args.json:
        summary = profiler.summary()
        doc = bench_document(
            bench="obs-profile",
            title="Event-loop profiler",
            seed=args.seed,
            results=[
                bench_result(
                    name="hotspots",
                    title=f"Handler hotspots on {args.topo}",
                    headers=["handler", "events", "wall_ns", "mean_ns", "share"],
                    rows=[
                        [
                            h["handler"],
                            h["events"],
                            h["wall_ns"],
                            h["mean_ns"],
                            h["share"],
                        ]
                        for h in summary["hotspots"]
                    ],
                    notes=(
                        "wall-clock attribution per handler category; "
                        "events_per_sec is the ROADMAP throughput baseline"
                    ),
                    telemetry={
                        "events_per_sec": summary["events_per_sec"],
                        "events": summary["events"],
                        "run_wall_ns": summary["run_wall_ns"],
                        "handler_wall_ns": summary["handler_wall_ns"],
                        "sim_ns": net.sim.now,
                    },
                )
            ],
        )
        artifact.write(args.json, doc)
        print(f"wrote {args.json}")
    return 0


def _cmd_watch(args) -> int:
    if args.replay:
        ts = TimeSeries.load(args.replay)
        watch_replay(ts, fps=args.fps, width=args.width, step=args.step)
        return 0
    spec = resolve_topology(args.topo)
    net = Network(
        spec,
        seed=args.seed,
        timeseries=TimeSeriesConfig(interval_ns=int(args.interval * MS)),
        inband=args.inband,
    )
    if args.inband:
        # host traffic gives the congestion heat rows something to show
        attach_pair(net, period_ns=5 * MS, data_bytes=512)
    # cuts land mid-run as scheduled sim events, so the dashboard shows
    # the blackout and the subsequent epoch happen
    for a, b in args.cut:
        net.sim.at(int(args.cut_at * MS), net.cut_link, a, b)
    watch_live(
        net, duration_ns=int(args.duration * SEC), fps=args.fps, width=args.width
    )
    if args.out:
        net.export_timeseries(args.out)
        print(f"\nwrote {args.out}")
    return 0


def _cmd_regress(args) -> int:
    current = artifact.read(args.current, "repro.bench/1")
    verdict = compare(current, read_baseline(args.baseline, current["bench"]))
    print(render_verdict(verdict))
    if args.out:
        artifact.write(args.out, verdict)
        print(f"wrote {args.out}")
    return 0 if verdict["verdict"] == "ok" else 1


def _cmd_sweep(args) -> int:
    def progress(point) -> None:
        note = (
            f"skipped ({point.skip_reason})"
            if point.status == "skipped"
            else "ok"
        )
        print(f"  {point.name}: {note}", file=sys.stderr)

    doc = run_sweep(
        ladder=args.ladder,
        seed=args.seed,
        topologies=args.topo,
        progress=progress,
        traffic=args.traffic,
    )
    out = args.out or f"sweep-{args.ladder}.json"
    artifact.write(out, doc)
    print(render_sweep(doc))
    print(f"wrote {out}")
    return 0


def _cmd_validate(args) -> int:
    for path in args.files:
        try:
            doc = artifact.read(path)
        except artifact.SchemaError as exc:
            print(f"{path}: INVALID {exc}", file=sys.stderr)
            return 1
        print(f"{path}: valid {doc['schema']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Flight-recorder tooling: trace export, causal "
        "queries, and the event-loop profiler.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_scenario_args(p) -> None:
        p.add_argument(
            "--topo", default="ring-4", help="topology name (default ring-4)"
        )
        p.add_argument(
            "--cut",
            type=parse_cut,
            action="append",
            default=[],
            metavar="A-B",
            help="cut the link between switches A and B (repeatable)",
        )
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument(
            "--capacity",
            type=int,
            default=65536,
            help="flight-ring capacity per component (default 65536)",
        )

    p_export = sub.add_parser("export", help="run a scenario, write the trace")
    add_scenario_args(p_export)
    p_export.add_argument(
        "--out", default=None, metavar="PATH", help="output path (default <topo>.trace.json)"
    )
    p_export.set_defaults(fn=_cmd_export)

    p_why = sub.add_parser("why", help="print causal chains behind table loads")
    add_scenario_args(p_why)
    p_why.set_defaults(fn=_cmd_why)

    p_profile = sub.add_parser("profile", help="profile the event loop")
    add_scenario_args(p_profile)
    p_profile.add_argument(
        "--json", default=None, metavar="PATH", help="write a repro.bench/1 document here"
    )
    p_profile.add_argument(
        "--trace", default=None, metavar="PATH", help="also record and write a flight trace"
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_watch = sub.add_parser(
        "watch", help="live sparkline dashboard (or artifact replay)"
    )
    add_scenario_args(p_watch)
    p_watch.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a recorded repro.obs.timeseries/1 artifact instead "
             "of running a scenario",
    )
    p_watch.add_argument(
        "--duration", type=float, default=5.0, metavar="SEC",
        help="simulated seconds to run (default 5)",
    )
    p_watch.add_argument(
        "--cut-at", type=float, default=1000.0, metavar="MS",
        help="simulated time at which --cut links fail (default 1000 ms)",
    )
    p_watch.add_argument(
        "--interval", type=float, default=50.0, metavar="MS",
        help="sampling interval (default 50 ms)",
    )
    p_watch.add_argument(
        "--fps", type=float, default=10.0, help="frames per second (default 10)"
    )
    p_watch.add_argument(
        "--width", type=int, default=32, help="sparkline width (default 32)"
    )
    p_watch.add_argument(
        "--step", type=int, default=1, help="replay: ticks per frame (default 1)"
    )
    p_watch.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the recorded timeseries artifact",
    )
    p_watch.add_argument(
        "--inband", action="store_true",
        help="attach host traffic with in-band telemetry and show "
             "per-link congestion heat rows",
    )
    p_watch.set_defaults(fn=_cmd_watch)

    p_paths = sub.add_parser(
        "paths", help="in-band path telemetry: flows, path changes, SLO"
    )
    add_scenario_args(p_paths)
    p_paths.add_argument(
        "--duration", type=float, default=1.0, metavar="SEC",
        help="simulated seconds of traffic each side of the cut (default 1)",
    )
    p_paths.add_argument(
        "--period", type=float, default=5.0, metavar="MS",
        help="packet period per sender (default 5 ms)",
    )
    p_paths.add_argument(
        "--bytes", type=int, default=512,
        help="data bytes per packet (default 512)",
    )
    p_paths.add_argument(
        "--top", type=int, default=8,
        help="congested links to list (default 8)",
    )
    p_paths.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro.obs.inband/1 artifact here",
    )
    p_paths.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write hop records as a Perfetto flow-arrow trace here",
    )
    p_paths.set_defaults(fn=_cmd_paths)

    p_regress = sub.add_parser(
        "regress", help="gate a bench document against committed baselines"
    )
    p_regress.add_argument(
        "--current", required=True, metavar="PATH",
        help="the fresh repro.bench/1 document to judge",
    )
    p_regress.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="baseline document, or a directory holding <bench>.json",
    )
    p_regress.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro.obs.regress/2 verdict here",
    )
    p_regress.set_defaults(fn=_cmd_regress)

    p_sweep = sub.add_parser(
        "sweep", help="run the scaling sweep across a topology ladder"
    )
    p_sweep.add_argument(
        "--ladder",
        default="smoke",
        choices=sorted(LADDERS),
        help="which rung set to climb (default smoke)",
    )
    p_sweep.add_argument(
        "--topo",
        action="append",
        default=None,
        metavar="NAME",
        help="explicit rung (repeatable; overrides --ladder's rung list)",
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="sweep seed")
    p_sweep.add_argument(
        "--traffic", action="store_true",
        help="drive the fluid hotspot workload through every rung and "
             "report traffic_* SLO metrics",
    )
    p_sweep.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default sweep-<ladder>.json)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_validate = sub.add_parser(
        "validate", help="check repro.*/1 artifacts against their schema"
    )
    p_validate.add_argument("files", nargs="+", metavar="FILE", help="artifact path")
    p_validate.set_defaults(fn=_cmd_validate)

    # missing or unknown subcommand: list what exists instead of a bare
    # argparse error (shared with python -m repro.traffic)
    status = report_unknown_subcommand(
        parser,
        sub,
        argv,
        extra=["topologies (--topo):"]
        + [f"  {example:<14} {desc}" for example, desc in TOPOLOGY_FAMILIES],
    )
    if status is not None:
        return status
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
