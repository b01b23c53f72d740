"""bench_e2e: the repository's end-to-end benchmark.

One command measures six workloads, prints every metric by name with its
unit, checks the outputs and writes one JSON result::

    python benchmarks/e2e/run.py [--seed N] [--rounds 7] [--only WORKLOAD] [--out DIR]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the harness contract of ``BENCHMARK.json``: one workload,
rounds repeated for ``S`` seconds, one JSON object on the last line.

Measurement protocol (README.md has the measured spreads behind it): the
simulator is single-threaded and CPU-bound, so load is one child process
at a time.  Every round runs in a *fresh subprocess* with
``PYTHONHASHSEED=0``; in the full run rounds are interleaved round-robin
across workloads; all rounds of a run use the same seed, so the work is
identical and differences are noise.  The machine's speed is sampled
*during* every round (``calibrate.SpeedProbe``) and each round's host
times are scaled to the reference host speed; a run reports the median
of its rounds, with the raw seconds beside it.  Per-layer metrics come
from separate traced rounds; end-to-end metrics are always measured with
tracing off.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import calibrate  # noqa: E402  (needs the path set up above)
import estimators  # noqa: E402

RESULT_SCHEMA = "bench_e2e/1"
#: end-to-end metrics: reported as the median over rounds ...
HOST_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
#: ... and, for host *time*, each round scaled to the reference host speed
SCALED_METRICS = ("wall_s", "cpu_s", "setup_s")
#: the harness contract never reports on fewer rounds than this ...
MIN_ROUNDS = 3
#: ... nor keeps repeating a very short workload beyond this
MAX_ROUNDS = 12


def load_manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one round: the child process --------------------------------------------------


def child_main() -> int:
    """Run one round of one workload; the spec arrives on stdin."""
    spec = json.load(sys.stdin)
    probe = calibrate.SpeedProbe()
    probe.start("setup")
    import workloads

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.workload(spec["workload"])
    os.makedirs(spec["out_dir"], exist_ok=True)

    state = workload.setup(spec["inputs"], spec["out_dir"])
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp from
    # before the spawn makes set-up include interpreter start and imports
    setup_s = time.monotonic() - spec["spawned_at"]
    if tracer is not None:
        tracer.begin_measure()
    probe.phase("measure")
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    workload.measure(state)
    wall_s = time.perf_counter() - wall_started
    cpu_s = time.process_time() - cpu_started
    probe.stop()
    result = workload.finish(state)

    raw = {"wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s}
    phase = {"wall_s": "measure", "cpu_s": "measure", "setup_s": "setup"}
    doc = {
        "workload": spec["workload"],
        "raw": raw,
        "slowdown": probe.slowdown("measure"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": result.attempted,
        "failed": result.failed,
        "violations": result.violations,
        "notes": result.notes,
        "fingerprint": estimators.fingerprint(result.model),
        "model": result.headline,
    }
    for metric, seconds in raw.items():
        # at reference speed: net of the probe's own slices, over the
        # slowdown the probe measured during that very phase
        spent = probe.spent(phase[metric])
        doc[metric] = (seconds - spent) / probe.slowdown(phase[metric])
    if tracer is not None:
        tracer.uninstall()
        artifact_bytes = sum(
            os.path.getsize(path) for path in state.extra.get("paths", {}).values()
        )
        doc["ledger"] = tracing.build_ledger(tracer, artifact_bytes, doc["slowdown"])
        doc["unmatched_modules"] = tracer.profiler.unmatched_modules()
        tracer.dump(spec["spans_path"], spec["workload"], spec["round"])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


# -- the parent: spawning rounds ---------------------------------------------------


class Session:
    """Spawns rounds one at a time and owns the output directory."""

    def __init__(self, seed: int, quick: bool, out_dir: str, keep: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.keep = keep
        self.out_dir = str(Path(out_dir).resolve())
        os.makedirs(self.out_dir, exist_ok=True)
        self._inputs: Dict[str, Dict[str, Any]] = {}
        self._rounds = 0

    def close(self) -> None:
        if not self.keep:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def inputs(self, name: str) -> Dict[str, Any]:
        if name not in self._inputs:
            import workloads

            self._inputs[name] = workloads.make_inputs(name, self.seed, self.quick)
        return self._inputs[name]

    def spans_path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"spans-{name}.json")

    def round(self, name: str, traced: bool = False) -> Dict[str, Any]:
        """One round in a fresh subprocess; raises if the child fails."""
        self._rounds += 1
        round_id = f"{name}/{self._rounds}"
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        spec = {
            "workload": name,
            "inputs": self.inputs(name),
            "trace": traced,
            "round": round_id,
            "out_dir": os.path.join(self.out_dir, "artifacts", name),
            "spans_path": self.spans_path(name),
            "spawned_at": time.monotonic(),
        }
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child"],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=170,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(
                f"round {round_id} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
            )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["round_s"] = time.monotonic() - started
        return doc


# -- aggregation -------------------------------------------------------------------


def summarise(
    plain: Sequence[Dict[str, Any]],
    traced: Sequence[Dict[str, Any]],
    manifest: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold one workload's rounds into its result entry."""
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    end_to_end = {}
    for metric in HOST_METRICS:
        samples = [r[metric] for r in plain]
        noise = estimators.noise_summary(samples)
        end_to_end[metric] = dict(noise, value=noise["median"], unit=units[metric], samples=samples)
        if metric in SCALED_METRICS:
            end_to_end[metric]["raw_samples"] = [r["raw"][metric] for r in plain]
    rounds = list(plain) + list(traced)
    fingerprints = sorted({r["fingerprint"] for r in rounds})
    notes = sorted({note for r in rounds for note in r["notes"]})
    if len(fingerprints) > 1:
        notes.append(
            f"nondeterminism: {len(fingerprints)} distinct modelled fingerprints in "
            f"{len(rounds)} rounds of one seed"
        )
    entry = {
        "end_to_end": end_to_end,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else "MISMATCH",
        "slowdown": statistics.median(r["slowdown"] for r in plain),
        "notes": notes,
    }
    if traced:
        entry["per_layer"] = _per_layer(plain, traced, manifest, notes)
    entry["correct"] = not notes and entry["failed"] == 0
    return entry


def _per_layer(
    plain: Sequence[Dict[str, Any]],
    traced: Sequence[Dict[str, Any]],
    manifest: Dict[str, Any],
    notes: List[str],
) -> Dict[str, Dict[str, Any]]:
    """The ledger of the least-disturbed traced round, completed with the
    rows only the parent can compute; exact rows must agree across rounds."""
    best = min(traced, key=lambda r: r["wall_s"])
    ledger = dict(best["ledger"])
    ledger["bench.trace_overhead"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in plain)
    ledger["analysis.violations"] = best["violations"]
    for metric in manifest["per_layer"]:
        if metric["name"].startswith("model."):
            ledger[metric["name"]] = best["model"].get(metric["name"], 0)
    for other in traced:
        drift = sorted(
            key
            for key, value in other["ledger"].items()
            if not _is_host_time(key) and value != best["ledger"][key]
        )
        if drift:
            notes.append(f"exact per-layer counts differ between traced rounds: {drift[:5]}")
            break
    if best["unmatched_modules"]:
        modules = ", ".join(best["unmatched_modules"])
        print(f"note: handler modules outside every layer: {modules}", file=sys.stderr)
    missing = sorted({m["name"] for m in manifest["per_layer"]} - set(ledger))
    extra = sorted(set(ledger) - {m["name"] for m in manifest["per_layer"]})
    if missing or extra:
        raise RuntimeError(f"ledger and BENCHMARK.json disagree: missing {missing}, extra {extra}")
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    return {key: {"value": ledger[key], "unit": units[key]} for key in sorted(ledger)}


def _is_host_time(metric: str) -> bool:
    """Per-layer rows measured in host time (everything else is exact)."""
    return metric.endswith(("_s", ".s")) or metric in (
        "sim.us_per_event",
        "bench.trace_overhead",
        "bench.other_share",
    )


# -- the harness contract: one workload for --seconds --------------------------------


def run_contract(args: argparse.Namespace) -> int:
    started = time.monotonic()
    manifest = load_manifest()
    out_dir = args.out
    if out_dir is None:
        # the harness contract: nothing is written outside the checkout
        os.makedirs(HERE / "out", exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="run-", dir=HERE / "out")
    session = Session(args.seed, args.quick, out_dir, keep=args.out is not None)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        longest = 0.0
        while True:
            for want_trace in (False, True) if args.trace else (False,):
                doc = session.round(args.workload, traced=want_trace)
                (traced if want_trace else plain).append(doc)
                longest = max(longest, doc["round_s"])
            cycle = longest * (2 if args.trace else 1)
            out_of_time = time.monotonic() + cycle > started + args.seconds
            if len(plain) >= MAX_ROUNDS or (len(plain) >= MIN_ROUNDS and out_of_time):
                break
        entry = summarise(plain, traced, manifest)
    finally:
        session.close()
    print_workload(args.workload, entry)
    metrics = entry["per_layer"] if args.trace else entry["end_to_end"]
    line = {
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


# -- the full run: every workload, interleaved ---------------------------------------


def run_full(args: argparse.Namespace) -> int:
    import workloads

    manifest = load_manifest()
    names = [n for n in workloads.WORKLOAD_NAMES if args.only in (None, n)]
    if not names:
        print(f"no workload named {args.only!r}; choose from {workloads.WORKLOAD_NAMES}")
        return 2
    out_dir = args.out or tempfile.mkdtemp(prefix="bench_e2e-")
    session = Session(args.seed, args.quick, out_dir, keep=True)
    plain: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    # round-robin: each workload's samples are spread over the session
    for number in range(1, args.rounds + 1):
        for name in names:
            plain[name].append(session.round(name))
            print(f"round {number}/{args.rounds} {name}: {plain[name][-1]['wall_s']:.3f} s")
    for name in names:
        traced[name].append(session.round(name, traced=True))
    result = {
        "schema": RESULT_SCHEMA,
        "seed": args.seed,
        "rounds": args.rounds,
        "quick": args.quick,
        "estimator": "median over rounds, each scaled to the reference host speed",
        "workloads": {name: summarise(plain[name], traced[name], manifest) for name in names},
    }
    for name in names:
        print_workload(name, result["workloads"][name])
    result_path = os.path.join(session.out_dir, "e2e-result.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nresult: {result_path}")
    print(f"spans:  {session.spans_path('<workload>')}")
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    """Every metric by name with its unit, noise beside the estimate."""
    print(f"\n== {name} ==")
    print(f"  values at reference speed; this host ran {entry['slowdown']:.3f}x slower than that")
    head = f"{'n':>2}{'min':>9}{'lq':>9}{'median':>9}{'max':>9}{'raw median':>12}"
    print(f"  {'metric':<14}{'value':>10} unit    {head}")
    for metric, row in entry["end_to_end"].items():
        raw = row.get("raw_samples")
        print(
            f"  {metric:<14}{row['value']:>10.4f} {row['unit']:<6}  {row['n']:>2}"
            f"{row['min']:>9.4f}{row['lower_quartile']:>9.4f}"
            f"{row['median']:>9.4f}{row['max']:>9.4f}"
            + (f"{statistics.median(raw):>12.4f}" if raw else "")
        )
    ratio = entry["failed"] / entry["attempted"]
    print(f"  operations: attempted {entry['attempted']}, failed {entry['failed']} ({ratio:.4%})")
    print(f"  modelled fingerprint: {entry['fingerprint']}")
    for layer_metric, row in entry.get("per_layer", {}).items():
        value = row["value"]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {layer_metric:<32}{shown:>16} {row['unit']}")
    for note in entry["notes"]:
        print(f"  FAILED CHECK: {note}")


# -- comparing two results -----------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """A (parent) against B (change): ok / worse / unresolved per row."""
    manifest = load_manifest()
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for doc, path in ((a, path_a), (b, path_b)):
        if doc.get("schema") != RESULT_SCHEMA:
            print(f"{path}: not a {RESULT_SCHEMA} result")
            return 2
    worse = 0
    print(f"{'workload':<18}{'metric':<14}{'A':>11}{'B':>11}{'change':>9}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, spec in bounds.items():
            ra, rb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            verdict, change = _verdict(ra, rb, spec)
            worse += verdict == "worse"
            print(
                f"{name:<18}{metric:<14}{ra['value']:>11.4f}{rb['value']:>11.4f}"
                f"{change:>+9.1%}  {verdict}"
            )
        for metric in sorted(wa.get("per_layer", {})):
            if metric.startswith("model."):
                va = wa["per_layer"][metric]["value"]
                vb = wb.get("per_layer", {}).get(metric, {}).get("value")
                if va or vb:
                    same = "identical" if va == vb else "CHANGED"
                    print(f"{name:<18}{metric:<26}{va:>14.6g}{vb:>14.6g}  {same}")
        same = wa["fingerprint"] == wb["fingerprint"] != "MISMATCH"
        print(f"{name:<18}modelled fingerprint {'identical' if same else 'DIFFERS'}")
    return 1 if worse else 0


def _verdict(ra: Dict[str, Any], rb: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[str, float]:
    """``worse`` beyond the bound, ``unresolved`` when either side's own
    noise floor (min to lower quartile) is wider than the bound."""
    sign = 1 if spec["better"] == "lower" else -1
    change = sign * (rb["value"] - ra["value"]) / ra["value"]
    floor = max((r["lower_quartile"] - r["min"]) / r["min"] for r in (ra, rb))
    if floor > spec["bound"]:
        return "unresolved", change
    return ("worse" if change > spec["bound"] else "ok"), change


# -- command line --------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per workload")
    parser.add_argument("--only", metavar="WORKLOAD", help="run a single workload")
    parser.add_argument("--out", metavar="DIR", help="keep result, spans and artifacts here")
    parser.add_argument("--quick", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    contract = parser.add_argument_group("harness contract (BENCHMARK.json)")
    contract.add_argument("--workload", help="measure this one workload for --seconds")
    contract.add_argument("--seconds", type=float, default=20.0)
    contract.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_contract(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
