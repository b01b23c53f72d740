"""CLI of the observability layer: record once, read afterwards.

.. code-block:: console

    # run the one scenario with every observer on, write its documents,
    # print their reports
    python -m repro.obs run --topo torus-3x4 --cut 0-1 --out obs_run

    # render any repro.*/1 files (or directories of them) as text
    python -m repro.obs report obs_run benchmarks/results chaos-artifacts

    # structural gate for the same files (dispatches on each file's tag)
    python -m repro.obs validate bench.json traffic.json chaos-artifacts

    # gate: diff a fresh bench document against committed baselines
    python -m repro.obs regress --current bench.json \
        --baseline benchmarks/results/baselines

``run`` is the only subcommand that simulates the measured scenario
(:func:`repro.scenario.drive_scenario`: build the topology, converge,
load, apply the requested link cuts, reconverge, load) and it records
everything: ``<out>/<topo>.trace.json`` (``repro.obs.flight/1``,
loadable at https://ui.perfetto.dev), ``.timeseries.json``,
``.inband.json`` and ``.bench.json`` (``repro.bench/1``: what the
scenario measured with the ``Network.telemetry()`` snapshot, and the
event-loop profiler's hotspots).  ``report`` answers section 6.7's
questions ("why did this epoch happen?", "what did traffic see?") from
those files through the one renderer each schema declares
(:mod:`repro.obs.artifact`) -- the same way for a directory CI uploaded
or ``python -m repro.chaos --replay F --artifacts DIR`` left behind.
``regress`` holds a ``repro.bench/1`` document equal to its committed
baseline, metric by metric, and exits non-zero otherwise; ``sweep``
climbs a topology ladder and writes its scaling curves (convergence,
blackout, control-plane cost versus size) as the ``repro.bench/1``
document ``scaling``, which ``regress`` gates like any bench.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.constants import MS, SEC
from repro.network import Network
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result
from repro.obs.regress import compare, read_baseline, render_verdict
from repro.obs.sweep import LADDERS, run_sweep
from repro.scenario import attach_pair, drive_scenario, parse_cut, report_unknown_subcommand
from repro.topology.generators import TOPOLOGY_FAMILIES, resolve_topology


def _cmd_run(args) -> int:
    net = Network(
        resolve_topology(args.topo), seed=args.seed,
        flight=True, profile=True, timeseries=True, inband=True, control=True,
    )
    attach_pair(net, period_ns=5 * MS, data_bytes=512)
    outcome = drive_scenario(net, args.cut, load_ns=1 * SEC)

    stem = os.path.join(args.out, args.topo)
    net.export_observers(stem)
    measured = [
        f.name for f in dataclasses.fields(outcome) if f.name not in ("cuts", "warnings")
    ]
    cuts = " ".join(f"{a}-{b}" for a, b in outcome.cuts) or "nothing"
    profile = net.profiler.summary()
    columns = ["handler", "events", "wall_ns", "mean_ns", "share"]
    doc = bench_document(
        bench="obs-run",
        title=f"converge, load, cut {cuts}, reconverge, load on {args.topo}",
        seed=args.seed,
        results=[
            bench_result(
                name="scenario",
                title=f"What the scenario measured on {args.topo}",
                headers=["topology", *measured],
                rows=[[args.topo, *(getattr(outcome, name) for name in measured)]],
                notes="\n".join(outcome.warnings),
                telemetry=net.telemetry(),
            ),
            bench_result(
                name="hotspots",
                title=f"Handler hotspots on {args.topo}",
                headers=columns,
                rows=[[h[column] for column in columns] for h in profile["hotspots"]],
                notes=(
                    f"{profile['events']} events in {profile['run_wall_ns'] / 1e9:.3f}s wall "
                    f"({profile['events_per_sec']:,.0f} events/sec); wall-clock attribution "
                    "per handler category"
                ),
                telemetry={
                    **{k: v for k, v in profile.items() if k != "hotspots"},
                    "sim_ns": net.sim.now,
                },
            ),
        ],
    )
    artifact.write(f"{stem}.bench.json", doc)
    return _each_document([args.out], _report)


def _each_document(paths: List[str], show: Callable[[str, Dict], str]) -> int:
    """Read every path (a directory stands for its ``*.json``, sorted,
    not recursed), print ``show(path, doc)`` for each valid document and
    ``PATH: INVALID why`` to stderr for each other; 1 if any was invalid."""
    status = 0
    for path in paths:
        is_dir = os.path.isdir(path)
        for file in sorted(glob.glob(os.path.join(path, "*.json"))) if is_dir else [path]:
            try:
                doc = artifact.read(file)
            except artifact.SchemaError as exc:
                print(f"{file}: INVALID {exc}", file=sys.stderr)
                status = 1
            else:
                print(show(file, doc))
    return status


def _cmd_files(args) -> int:
    return _each_document(args.paths, args.show)


def _report(path: str, doc: Dict) -> str:
    return f"== {path} ({doc['schema']}) ==\n{artifact.render(doc)}\n"


def _valid(path: str, doc: Dict) -> str:
    return f"{path}: valid {doc['schema']}"


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
        print(f"  {point['topology']}: {point['status']}", file=sys.stderr)

    doc = run_sweep(
        ladder=args.ladder,
        seed=args.seed,
        topologies=args.topo,
        progress=progress,
        traffic=args.traffic,
    )
    out = args.out or f"sweep-{args.ladder}.json"
    artifact.write(out, doc)
    print(artifact.render(doc))
    print(f"wrote {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling: record a scenario's documents, "
        "then render, validate or gate any repro.*/1 file.",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser(
        "run", help="run the scenario with every observer on, write and report its documents"
    )
    p_run.add_argument("--topo", default="ring-4", help="topology name (default ring-4)")
    p_run.add_argument(
        "--cut",
        type=parse_cut,
        action="append",
        default=[],
        metavar="A-B",
        help="cut the link between switches A and B (repeatable)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="simulation seed")
    p_run.add_argument(
        "--out", default="obs_run", metavar="DIR",
        help="directory for <topo>.{trace,timeseries,inband,bench}.json "
             "(default obs_run)",
    )
    p_run.set_defaults(fn=_cmd_run)

    for name, show, text in (
        ("report", _report, "render repro.*/1 artifacts as text"),
        ("validate", _valid, "check repro.*/1 artifacts against their schema"),
    ):
        p_files = sub.add_parser(name, help=text)
        p_files.add_argument(
            "paths", nargs="+", metavar="PATH", help="artifact file, or a directory of *.json"
        )
        p_files.set_defaults(fn=_cmd_files, show=show)

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
