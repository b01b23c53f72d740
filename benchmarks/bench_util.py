"""The benchmark harness: the one driver of the experiments, and the
export of their tables.

An experiment's installation is data: a :class:`Row` (topology,
``AutopilotParams`` overrides, hosts and their workload, ``repro.chaos/1``
fault events, a stop rule).  A :class:`Rig` builds it, boots it to the
fault instant and injects the faults; the bench's measure function reads
the rig around :meth:`Rig.inject`.  A single-cut measurement hands
``rig.net`` to :func:`measured_cut`, which runs on
:func:`repro.scenario.drive_scenario`.

Each :func:`report` prints a table and writes it to
``results/<bench>.txt`` and ``results/BENCH_<bench>.json``
(``repro.obs.export``).  ``python -m benchmarks <name> [--seed N]
[--only S] [--json P]`` runs :func:`run_cli`: every test of
``bench_<name>.py`` with a stub ``benchmark`` fixture, into one combined
document; pytest runs them as tests.
"""

from __future__ import annotations

import copy
import importlib
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.chaos.events import FaultEvent
from repro.constants import SEC
from repro.core.autopilot import AutopilotParams
from repro.host.localnet import LocalNet
from repro.host.workload import RpcClient, RpcServer
from repro.network import Network
from repro.obs import artifact
from repro.obs.export import bench_document, bench_result, format_table
from repro.scenario import ScenarioResult, drive_scenario
from repro.topology import TopologySpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: the longest a rig's boot or reconvergence may take before the bench
#: fails (every row converges in under 2 s of sim time at seed 0)
CONVERGE_TIMEOUT_NS = 60 * SEC

#: the combined document being assembled by run_cli (None under pytest)
_document: Optional[Dict] = None
#: seed requested via --seed (None: REPRO_BENCH_SEED, else 0)
_seed_override: Optional[int] = None


def current_seed() -> int:
    """The RNG seed benches build their networks with."""
    if _seed_override is not None:
        return _seed_override
    return int(os.environ.get("REPRO_BENCH_SEED", 0))


@dataclass(frozen=True)
class Rpc:
    """A closed-loop RPC workload: host ``client`` calls host ``server``."""

    timeout_ns: int
    think_ns: int


@dataclass(frozen=True)
class Row:
    """One experiment's installation and what happens to it."""

    topology: TopologySpec
    #: ``AutopilotParams`` overrides by dotted path, e.g.
    #: ``{"reconfig.reset_on_load": False}``; a path naming no field raises
    params: Mapping[str, object] = field(default_factory=dict)
    #: ``Network`` keyword arguments: which observers, which traffic
    network: Mapping[str, object] = field(default_factory=dict)
    #: host name -> its one or two (switch, port) attachments, in add order
    hosts: Mapping[str, Sequence[Tuple[int, int]]] = field(default_factory=dict)
    #: hosts left without a LocalNet (a bridge's port, a host to power off)
    bare: Tuple[str, ...] = ()
    workload: Optional[Rpc] = None
    #: idle time after boot convergence, before the workload starts
    settle_ns: int = 5 * SEC
    #: workload time before the faults
    load_ns: int = 0
    #: applied at the fault instant, or ``at_ns`` after it
    faults: Tuple[FaultEvent, ...] = ()
    #: after the faults: run this long, or (None) until reconverged
    stop: Optional[int] = 0


def autopilot_params(overrides: Mapping[str, object]) -> AutopilotParams:
    """Fresh ``AutopilotParams`` with each dotted-path override set (a
    copy of its value); a path naming no field raises ``KeyError``."""
    params = AutopilotParams()
    for path, value in overrides.items():
        *parents, leaf = path.split(".")
        target = params
        for name in parents:
            target = getattr(target, _field(target, name, path))
        setattr(target, _field(target, leaf, path), copy.deepcopy(value))
    return params


def _field(record: object, name: str, path: str) -> str:
    if not is_dataclass(record) or name not in {f.name for f in fields(record)}:
        raise KeyError(f"AutopilotParams has no field {path!r}")
    return name


class Rig:
    """A :class:`Row` built: ``net``, a LocalNet per host in
    ``localnets`` (bare ones excepted) and, once booted, the RPC
    ``client`` and ``server``.  Nothing has run yet."""

    def __init__(self, row: Row) -> None:
        self.row = row

        def factory(_index: int) -> AutopilotParams:
            return autopilot_params(row.params)

        self.net = Network(row.topology, params_factory=factory if row.params else None,
                           seed=current_seed(), **row.network)
        for name, attachments in row.hosts.items():
            self.net.add_host(name, attachments)
        self.localnets = {
            name: LocalNet(self.net.drivers[name]) for name in row.hosts if name not in row.bare
        }
        self.client: Optional[RpcClient] = None
        self.server: Optional[RpcServer] = None

    def boot(self) -> "Rig":
        """Converge, idle ``settle_ns``, start the workload and run it
        ``load_ns``: the clock then stands at the fault instant."""
        net, row = self.net, self.row
        assert net.run_until_converged(CONVERGE_TIMEOUT_NS), f"no boot: {row.topology.name}"
        net.run_for(row.settle_ns)
        if row.workload is not None:
            self.server = RpcServer(self.localnets["server"])
            self.client = RpcClient(self.localnets["client"], net.hosts["server"].uid,
                                    timeout_ns=row.workload.timeout_ns,
                                    think_ns=row.workload.think_ns)
        if row.load_ns:
            net.run_for(row.load_ns)
        return self

    def inject(self) -> "Rig":
        """Apply the faults -- an event with ``at_ns`` 0 at once, the
        rest scheduled that far ahead -- then run the stop rule."""
        net, stop = self.net, self.row.stop
        t0 = net.sim.now
        for event in self.row.faults:
            if event.at_ns:
                net.sim.at(t0 + event.at_ns, event.apply, net)
            else:
                event.apply(net)
        if stop is None:
            assert net.run_until_converged(CONVERGE_TIMEOUT_NS), "no reconvergence"
        elif stop:
            net.run_for(stop)
        return self


def measured_cut(net, cut=None, load_ns: int = 2 * SEC) -> ScenarioResult:
    """The E-series scenario on a freshly built ``net``: boot to
    convergence, idle ``load_ns``, cut one cable (default: the topology's
    first), reconverge.  Asserts both convergences and returns what
    :func:`repro.scenario.drive_scenario` measured."""
    if cut is None:
        a, _pa, b, _pb = net.spec.cables[0]
        cut = (a, b)
    outcome = drive_scenario(net, [cut], load_ns=load_ns, timeout_ns=240 * SEC)
    assert outcome.converged, f"no boot convergence: {net.spec.name}"
    assert outcome.reconverged, f"no reconvergence: {net.spec.name}"
    return outcome


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
    telemetry: Optional[Dict] = None,
) -> str:
    """Render, print, and persist one result table (text + JSON)."""
    result = bench_result(
        name, title,
        headers=[str(h) for h in headers],
        rows=[[_scalar(cell) for cell in row] for row in rows],
        notes=notes,
        telemetry=telemetry,
    )
    return report_document(
        bench_document(name, title=title, seed=current_seed(), results=[result])
    )


def report_document(doc: Dict) -> str:
    """Print and persist a ``repro.bench/1`` document's tables: as
    ``results/<bench>.txt`` and ``results/BENCH_<bench>.json``, and into
    the combined document :func:`run_cli` is assembling."""
    text = "\n".join(
        f"== {result['title']} ==\n{format_table(result['headers'], result['rows'])}\n"
        + (result["notes"].rstrip() + "\n" if result["notes"] else "")
        for result in doc["results"]
    )
    if _document is not None:
        _document["results"].extend(doc["results"])

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{doc['bench']}.txt"), "w") as fh:
        fh.write(text)
    artifact.write(os.path.join(RESULTS_DIR, f"BENCH_{doc['bench']}.json"), doc)

    print("\n" + text)
    return text


def _scalar(cell):
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


def fmt_ms(ns) -> str:
    return "-" if ns is None else f"{ns / 1e6:.1f}"


def fmt_us(ns) -> str:
    return "-" if ns is None else f"{ns / 1e3:.2f}"


class _StubBenchmark:
    """Stands in for pytest-benchmark's fixture under run_cli."""

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0):
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


def run_cli(name: str, seed: Optional[int], only: Optional[str],
            json_path: Optional[str]) -> int:
    """Run every ``test_*`` function of ``bench_<name>.py`` whose name
    contains ``only`` with a stub ``benchmark`` fixture, optionally write
    their combined tables to ``json_path``, and return the exit status."""
    global _document, _seed_override

    module = importlib.import_module(f"benchmarks.bench_{name}")
    tests = [
        (test, fn)
        for test, fn in sorted(vars(module).items())
        if test.startswith("test_") and callable(fn) and (only is None or only in test)
    ]
    if not tests:
        print("no tests selected", file=sys.stderr)
        return 2
    if seed is not None:
        _seed_override = seed

    failures = []
    title = module.__doc__.strip().splitlines()[0].strip()
    _document = bench_document(name, title=title, seed=current_seed())
    for test, fn in tests:
        print(f"-- {test}")
        try:
            fn(_StubBenchmark())
        except AssertionError as error:
            failures.append(test)
            print(f"FAILED {test}: {error}", file=sys.stderr)

    if json_path:
        artifact.write(json_path, _document)
        print(f"wrote {json_path}")
    _document = None
    return 1 if failures else 0
