"""Executed-bytecode count of one round of an end-to-end workload.

Host seconds on a shared machine spread by a few per cent from run to
run; the number of bytecodes the interpreter executes does not. For one
interpreter version it repeats exactly, so a change of well under 1 % is
visible in one run. The count covers the measured phase of one round of
a ``benchmarks/e2e`` workload at seed 0 (its set-up is not counted),
taken from that directory's own inputs and workload classes::

    python benchmarks/opcodes.py steady_srclan [--top 25]
    python benchmarks/opcodes.py reconfig_srclan --quick   # tiny sizes, ~1 s

It prints the interpreter version, the total, and the opcodes executed
per module and per function (the ``--top`` largest of each), with each
one's share of the total. Counting runs under ``sys.settrace`` with
opcode events, under 1 µs per opcode on a 2.1 GHz Xeon: a full-size
round takes about a minute.
Rounds run with ``PYTHONHASHSEED=0``, as the benchmark's rounds do (the
script re-executes itself to get it), so the count is exact.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE / "e2e")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402  (benchmarks/e2e, on the path set up above)


def count_opcodes(fn: Callable[[], object]) -> Counter:
    """Opcodes executed per code object while ``fn()`` runs."""
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return counts


def module_of(filename: str) -> str:
    """The dotted module name of ``filename``, by the longest ``sys.path``
    entry that holds it (the file name itself if none does)."""
    path = Path(filename).resolve()
    for entry in sorted((Path(p).resolve() for p in sys.path if p), key=lambda p: -len(p.parts)):
        if entry in path.parents:
            parts = path.relative_to(entry).with_suffix("").parts
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    return filename


def measure_round(name: str, quick: bool) -> Counter:
    """Set up one round of workload ``name`` at seed 0 and count its
    measured phase."""
    inputs = workloads.make_inputs(name, 0, quick=quick)
    workload = workloads.workload(name)
    with tempfile.TemporaryDirectory() as out_dir:
        state = workload.setup(inputs, out_dir)
        counts = count_opcodes(lambda: workload.measure(state))
        workload.finish(state)
    return counts


def report(name: str, counts: Counter, top: int) -> str:
    total = sum(counts.values())
    by_module: Dict[str, int] = Counter()
    by_function: Dict[str, int] = Counter()
    for code, n in counts.items():
        module = module_of(code.co_filename)
        by_module[module] += n
        # co_qualname is new in 3.11; co_name drops the class before it
        by_function[f"{module}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    lines = [
        f"{name} seed 0: {total:,} opcodes in the measured phase "
        f"(CPython {sys.version.split()[0]})"
    ]
    for title, table in (("module", by_module), ("function", by_function)):
        lines.append(f"by {title}:")
        for key, n in Counter(table).most_common(top):
            lines.append(f"  {n:>12,}  {100 * n / total:5.1f} %  {key}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--quick", action="store_true", help="the smoke test's tiny sizes")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    counts = measure_round(args.workload, args.quick)
    print(report(args.workload, counts, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
