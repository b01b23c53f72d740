"""The ``repro.staticcheck/1`` report document.

Sibling of ``repro.bench/1`` (:mod:`repro.obs.export`) and
``repro.chaos/1`` (:mod:`repro.chaos.replay`): a JSON artifact CI
uploads on every run, deterministic byte-for-byte for a given tree --
findings are sorted, the rule table is sorted, and no timestamps or
host details are embedded.  Checked, read and written through
:mod:`repro.obs.artifact` like every other ``repro.*/1`` document.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.artifact import BOOL, COUNT, INT, NAME, STR, Map, Opt, Schema, fail, keys
from repro.staticcheck.framework import Pass, Rule, SuiteResult, all_rules

SCHEMA = "repro.staticcheck/1"


def build_report(result: SuiteResult,
                 passes: Optional[Sequence[Pass]] = None) -> Dict[str, Any]:
    """A JSON-ready document for one suite run."""
    rules: List[Rule] = all_rules(passes)
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "tool": "repro.staticcheck",
        "roots": list(result.roots),
        "files_scanned": result.files_scanned,
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "invariant": rule.invariant,
                "paper": rule.paper,
                "hint": rule.hint,
            }
            for rule in rules
        ],
        "findings": [f.to_json() for f in result.findings],
        "suppressed": [f.to_json() for f in result.suppressed],
        "stale_suppressions": list(result.stale_suppressions),
    }
    doc["summary"] = _summary(doc)
    return doc


def _summary(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The summary the three lists of ``doc`` imply."""
    by_rule: Dict[str, int] = {}
    for finding in doc["findings"]:
        by_rule[finding["rule"]] = by_rule.get(finding["rule"], 0) + 1
    return {
        "findings": len(doc["findings"]),
        "suppressed": len(doc["suppressed"]),
        "stale_suppressions": len(doc["stale_suppressions"]),
        "by_rule": by_rule,
        # stale suppressions fail the run too: a baseline may only shrink
        "ok": not doc["findings"] and not doc["stale_suppressions"],
    }


def _rules(doc: Dict[str, Any]) -> None:
    """Findings name declared rules, and the summary is a recount."""
    known = set()
    for i, rule in enumerate(doc["rules"]):
        if not rule["id"].startswith("RS"):
            fail(f"$.rules[{i}].id", f"expected an RSxxx id, got {rule['id']!r}")
        known.add(rule["id"])
    for section in ("findings", "suppressed"):
        for i, finding in enumerate(doc[section]):
            if finding["rule"] not in known:
                fail(f"$.{section}[{i}].rule", f"unknown rule {finding['rule']!r}")
    for key, counted in _summary(doc).items():
        if doc["summary"][key] != counted:
            fail(f"$.summary.{key}", f"declares {doc['summary'][key]!r}, counted {counted!r}")


_FINDING = {**keys(STR, "rule", "path", "message"), **keys(INT, "line", "col"), "hint": Opt(STR)}

ARTIFACT = Schema(
    {
        "roots": [STR],
        "files_scanned": COUNT,
        "rules": [keys(STR, "id", "title", "invariant", "paper", "hint")],
        "findings": [_FINDING],
        "suppressed": [{**_FINDING, "justification": NAME}],
        "stale_suppressions": [keys(STR, "rule", "path", "justification")],
        "summary": {
            **keys(COUNT, "findings", "suppressed", "stale_suppressions"),
            "by_rule": Map(COUNT),
            "ok": BOOL,
        },
    },
    rules=_rules,
    sort_keys=True,
)


def render_text(result: SuiteResult) -> str:
    """Human-readable run summary for terminals and CI logs."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location()}: {finding.rule}: {finding.message}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    for entry in result.stale_suppressions:
        lines.append(
            f"stale baseline entry: {entry['rule']} at {entry['path']} matched "
            f"nothing (delete it, or run --prune-baseline)")
    verdict = "OK" if result.ok else "FAIL"
    by_rule = ", ".join(f"{k}={v}" for k, v in result.by_rule().items())
    lines.append(
        f"staticcheck {verdict}: {result.files_scanned} files, "
        f"{len(result.findings)} finding(s)"
        + (f" [{by_rule}]" if by_rule else "")
        + (f", {len(result.suppressed)} baselined" if result.suppressed else "")
        + (f", {len(result.stale_suppressions)} stale baseline entr"
           f"{'y' if len(result.stale_suppressions) == 1 else 'ies'}"
           if result.stale_suppressions else "")
    )
    return "\n".join(lines)


def render_github(result: SuiteResult) -> str:
    """GitHub Actions workflow-command output: inline PR annotations.

    One ``::error`` per active finding and per stale baseline entry
    (both fail the run), then the same verdict line as the text format
    so logs stay greppable.
    """
    lines: List[str] = []
    for finding in result.findings:
        message = finding.message
        if finding.hint:
            message += f" -- fix: {finding.hint}"
        lines.append(
            f"::error file={finding.path},line={max(finding.line, 1)},"
            f"col={max(finding.col, 1)},title={finding.rule}::{_escape(message)}"
        )
    for entry in result.stale_suppressions:
        lines.append(
            f"::error file={entry['path']},line=1,title=stale-baseline::"
            + _escape(
                f"baseline entry {entry['rule']} at {entry['path']} matched "
                f"nothing -- delete it or run --prune-baseline")
        )
    verdict = "OK" if result.ok else "FAIL"
    lines.append(
        f"staticcheck {verdict}: {result.files_scanned} files, "
        f"{len(result.findings)} finding(s), "
        f"{len(result.stale_suppressions)} stale baseline entries"
    )
    return "\n".join(lines)


def _escape(message: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return (message.replace("%", "%25")
            .replace("\r", "%0D").replace("\n", "%0A"))
