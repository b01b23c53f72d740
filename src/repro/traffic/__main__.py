"""CLI for the traffic SLO observatory.

.. code-block:: console

    # the acceptance scenario: 1000-flow hotspot workload over 500
    # logical hosts on the 30-switch SRC LAN, surviving a cable cut
    python -m repro.traffic run --out traffic.json

    # smaller, on a ring, through a chosen cut
    python -m repro.traffic run --topo ring-4 --flows 8 --hosts 4 --cut 0-1

    # structural gate (CI's traffic-smoke job), then the report again
    python -m repro.obs validate traffic.json
    python -m repro.obs report traffic.json

``run`` drives the shared scenario (generate -> converge -> load ->
cut -> reconverge -> report) through :func:`repro.scenario.
drive_scenario` -- the same driver ``python -m repro.obs run`` uses
-- and writes a validated ``repro.traffic/1`` artifact.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.constants import SEC
from repro.network import Network
from repro.obs import artifact
from repro.scenario import drive_scenario, parse_cut
from repro.topology.generators import TOPOLOGY_FAMILIES, resolve_topology
from repro.traffic.workload import TrafficConfig


def _cmd_run(args) -> int:
    spec = resolve_topology(args.topo)
    config = TrafficConfig(
        flows=args.flows, hosts=args.hosts, duration_ns=int(args.duration * SEC)
    )
    net = Network(
        spec, seed=args.seed, traffic=config, timeseries=args.timeseries_out is not None
    )
    cuts = args.cut
    if not cuts:
        a, _pa, b, _pb = spec.cables[0]
        cuts = [(a, b)]
    load_ns = int(args.duration * SEC) + int(args.drain * SEC)
    drive_scenario(net, cuts, load_ns=load_ns)
    doc = net.traffic_doc()
    print(artifact.render(doc))
    if args.out:
        artifact.write(args.out, doc)
        print(f"wrote {args.out}")
    if args.timeseries_out:
        net.export_timeseries(args.timeseries_out)
        print(f"wrote {args.timeseries_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traffic",
        description="Flow-level traffic workloads with blackout-cost "
        "accounting during reconfiguration.",
        epilog="\n".join(["topologies (--topo):"] + [
            f"  {example:<14} {desc}" for example, desc in TOPOLOGY_FAMILIES]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="generate a workload, run it through a cable cut, report"
    )
    p_run.add_argument(
        "--topo", default="src-lan-30", help="topology name (default src-lan-30)"
    )
    p_run.add_argument(
        "--flows", type=int, default=1000, help="flow count (default 1000)"
    )
    p_run.add_argument(
        "--hosts", type=int, default=500, help="logical hosts (default 500)"
    )
    p_run.add_argument(
        "--duration", type=float, default=1.0, metavar="SEC",
        help="arrival window; also the load phase each side of the cut "
             "(default 1.0 simulated seconds)",
    )
    p_run.add_argument(
        "--drain", type=float, default=1.0, metavar="SEC",
        help="extra run time per load phase for flows to finish (default 1.0)",
    )
    p_run.add_argument(
        "--cut", type=parse_cut, action="append", default=[], metavar="A-B",
        help="cut the link between switches A and B (repeatable; "
             "default: the topology's first cable)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="simulation seed")
    p_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro.traffic/1 artifact here",
    )
    p_run.add_argument(
        "--timeseries-out", default=None, metavar="PATH",
        help="also sample the traffic series into timeseries rings and "
             "write the repro.obs.timeseries/1 artifact here",
    )
    p_run.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
