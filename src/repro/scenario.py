"""The shared scenario driver: converge -> load -> cut -> reconverge.

Every observability CLI used to hand-roll the same four-beat scenario
(``python -m repro.obs paths`` and now ``python -m repro.traffic run``):
boot-converge the installation, run traffic for a while, cut cables,
reconverge, run traffic again.  :func:`drive_scenario` is that scenario
as one helper so the CLIs cannot drift apart.  The other shared pieces
of CLI behavior live here too: :func:`report_unknown_subcommand` (both
tools print a usage listing and exit 2 on a missing *or* unknown
subcommand instead of a bare argparse error), :func:`parse_cut` (the
``--cut A-B`` argument type) and :func:`fmt_ns` (durations in reports).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TextIO, Tuple

from repro.constants import SEC


def parse_cut(text: str) -> Tuple[int, int]:
    """argparse type for ``--cut A-B``: two switch indices."""
    try:
        a, b = text.split("-", 1)
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a cut like 0-1 (two switch indices), got {text!r}"
        ) from exc


def fmt_ns(value: Optional[float]) -> str:
    """A duration in the largest unit that keeps it readable."""
    if value is None:
        return "-"
    if value < 1_000:
        return f"{value:.0f}ns"
    if value < 1_000_000:
        return f"{value / 1e3:.1f}us"
    if value < 1_000_000_000:
        return f"{value / 1e6:.1f}ms"
    return f"{value / 1e9:.3f}s"


@dataclass
class ScenarioResult:
    """What happened while driving one scenario."""

    converged: bool = False
    reconverged: bool = True
    cuts: List[Tuple[int, int]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def drive_scenario(
    net,
    cuts: Sequence[Tuple[int, int]],
    load_ns: int = 0,
    timeout_ns: int = 60 * SEC,
    warn_stream: Optional[TextIO] = None,
) -> ScenarioResult:
    """Converge ``net``, run load, apply ``cuts``, reconverge, run load.

    If the network carries a traffic engine (``Network(traffic=...)``)
    that has not launched yet, the workload launches right after initial
    convergence -- measuring a *running* network's reconfiguration, not
    its boot.  ``load_ns`` simulated nanoseconds run on each side of the
    cut; warnings go to ``warn_stream`` (default stderr) and into the
    result.
    """
    stream = warn_stream if warn_stream is not None else sys.stderr
    result = ScenarioResult(cuts=list(cuts))

    def warn(message: str) -> None:
        result.warnings.append(message)
        print(f"warning: {message}", file=stream)

    result.converged = net.run_until_converged(timeout_ns=timeout_ns)
    if not result.converged:
        warn("initial configuration did not converge")
    traffic = getattr(net, "traffic", None)
    if traffic is not None and not traffic.launched:
        traffic.launch()
    if load_ns:
        net.run_for(load_ns)
    for a, b in cuts:
        net.cut_link(a, b)
    if cuts:
        result.reconverged = net.run_until_converged(timeout_ns=timeout_ns)
        if not result.reconverged:
            warn("post-cut reconfiguration did not converge")
    if load_ns:
        net.run_for(load_ns)
    return result


def report_unknown_subcommand(
    parser,
    sub,
    argv: Optional[Sequence[str]],
    extra: Sequence[str] = (),
    stream: Optional[TextIO] = None,
) -> Optional[int]:
    """Shared CLI behavior: list subcommands and return 2 when the first
    positional argument is missing or names no subcommand; None when the
    command line looks dispatchable (argparse takes it from there).

    ``extra`` lines (e.g. topology families) print verbatim after the
    listing.
    """
    out = stream if stream is not None else sys.stderr
    args = list(sys.argv[1:] if argv is None else argv)
    command = next((a for a in args if not a.startswith("-")), None)
    if command is not None and command in sub.choices:
        return None
    if command is None and ("-h" in args or "--help" in args):
        return None  # let argparse print full help
    parser.print_usage(out)
    if command is not None:
        print(f"unknown subcommand: {command!r}", file=out)
    print("subcommands:", file=out)
    helps = {
        action.dest: action.help
        for action in getattr(sub, "_choices_actions", [])
    }
    width = max((len(name) for name in sub.choices), default=8)
    for name in sub.choices:
        print(f"  {name:<{width}} {helps.get(name) or ''}", file=out)
    for line in extra:
        print(line, file=out)
    return 2
