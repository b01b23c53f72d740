"""CLI of the observability layer: record once, read afterwards.

.. code-block:: console

    # run the one scenario with every observer on, write its documents,
    # print their reports
    python -m repro.obs run --topo torus-3x4 --cut 0-1 --out obs_run

    # render any repro.*/1 files (or directories of them) as text
    python -m repro.obs report obs_run benchmarks/results chaos-artifacts

    # structural gate for the same files (dispatches on each file's tag)
    python -m repro.obs validate bench.json traffic.json chaos-artifacts

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
from repro.scenario import attach_pair, drive_scenario, parse_cut
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling: record a scenario's documents, "
        "then render or validate any repro.*/1 file.",
        epilog="\n".join(["topologies (--topo):"] + [
            f"  {example:<14} {desc}" for example, desc in TOPOLOGY_FAMILIES]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
