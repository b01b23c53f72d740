"""CLI: ``python -m repro.staticcheck [paths...]``.

Exit codes: 0 clean (baselined findings allowed), 1 active findings,
parse errors, or stale baseline entries, 2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import artifact
from repro.staticcheck.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    find_default_baseline,
)
from repro.staticcheck.framework import all_rules, run_suite
from repro.staticcheck.report import build_report, render_github, render_text


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST-based determinism & protocol-discipline linter",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="write the repro.staticcheck/1 report document here",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppression file (default: nearest staticcheck-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline: report every finding",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="rewrite the baseline file without in-scope stale entries",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids or prefixes (e.g. RS1,RS203)",
    )
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="output format: terminal text or GitHub ::error annotations",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
            print(f"       protects: {rule.invariant}")
            print(f"       motivated by: {rule.paper}")
            print(f"       fix: {rule.hint}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline = None
    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
            if not baseline_path.is_file():
                print(f"error: baseline not found: {baseline_path}",
                      file=sys.stderr)
                return 2
        else:
            # from the tree being scanned, not the CWD: the same baseline
            # applies wherever the command is typed
            baseline_path = find_default_baseline(args.paths[0])
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except ValueError as error:  # not JSON, or a SchemaError
                print(f"error: {baseline_path}: {error}", file=sys.stderr)
                return 2

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]

    result = run_suite([Path(p) for p in args.paths], select=select,
                       baseline=baseline)

    pruned = 0
    if args.prune_baseline and result.stale_suppressions \
            and baseline_path is not None:
        pruned = _prune_baseline(baseline_path, result.stale_suppressions)
        result.stale_suppressions = []

    if args.json:
        artifact.write(args.json, build_report(result))

    text = render_github(result) if args.format == "github" else render_text(result)
    if pruned:
        entries = "entry" if pruned == 1 else "entries"
        text = f"pruned {pruned} stale baseline {entries} from " \
               f"{baseline_path}\n" + text
    print(text)
    return 0 if result.ok else 1


def _prune_baseline(path: Path, stale: List[Dict[str, str]]) -> int:
    """Rewrite the baseline file minus the given stale entries."""
    doc = artifact.read(str(path), BASELINE_SCHEMA)
    dead = {(s["rule"], s["path"]) for s in stale}
    entries = doc["suppressions"]
    doc["suppressions"] = [
        entry for entry in entries
        if (entry["rule"], entry["path"].replace("\\", "/")) not in dead
    ]
    artifact.write(str(path), doc)
    return len(entries) - len(doc["suppressions"])


if __name__ == "__main__":
    sys.exit(main())
