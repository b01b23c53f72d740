"""The suppression baseline: grandfathered findings, each justified.

``staticcheck-baseline.json`` at the repo root lists findings that are
*intentional* -- an artifact serializer that must ``open()`` a file, the
profiler's ``perf_counter_ns`` reads -- so the CI gate can be blocking
without forcing contortions on legitimate exceptions.  Every entry
requires a non-empty one-line justification; entries match by
``(rule, path)`` rather than line number so routine edits to a file do
not invalidate its suppressions.  Entries that match nothing are
reported as *stale* so the baseline shrinks as violations are fixed.

Schema (``repro.staticcheck-baseline/1``)::

    {
      "schema": "repro.staticcheck-baseline/1",
      "suppressions": [
        {"rule": "RS201", "path": "src/repro/obs/export.py",
         "justification": "artifact serializer: open() is its purpose"}
      ]
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.obs.artifact import NAME, Schema, fail, keys, read, validate
from repro.staticcheck.framework import Finding

BASELINE_SCHEMA = "repro.staticcheck-baseline/1"
DEFAULT_BASELINE_NAME = "staticcheck-baseline.json"


def _rules(doc: Dict[str, Any]) -> None:
    """Every entry names an RS rule and says why it is exempt."""
    for i, entry in enumerate(doc["suppressions"]):
        if not entry["rule"].startswith("RS"):
            fail(f"$.suppressions[{i}].rule", "must be an RSxxx id")
        if not entry["justification"].strip():
            fail(f"$.suppressions[{i}].justification",
                 "a non-empty justification is required -- unexplained "
                 "suppressions defeat the gate")


ARTIFACT = Schema({"suppressions": [keys(NAME, "rule", "path", "justification")]}, rules=_rules)


@dataclass(frozen=True)
class Suppression:
    rule: str
    path: str
    justification: str


@dataclass
class Baseline:
    suppressions: List[Suppression] = field(default_factory=list)
    _used: Set[Suppression] = field(default_factory=set)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        return cls.from_dict(read(str(path), BASELINE_SCHEMA))

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Baseline":
        entries = validate(raw, BASELINE_SCHEMA)["suppressions"]
        return cls(suppressions=[
            Suppression(e["rule"], e["path"].replace("\\", "/"), e["justification"])
            for e in entries
        ])

    def match(self, finding: Finding) -> Optional[Suppression]:
        """The first suppression covering this finding, marking it used."""
        for suppression in self.suppressions:
            if finding.rule != suppression.rule:
                continue
            if _path_matches(suppression.path, finding.path):
                self._used.add(suppression)
                return suppression
        return None

    def stale(self) -> List[Suppression]:
        """Entries that matched no finding in the run (candidates to delete)."""
        return [s for s in self.suppressions if s not in self._used]


def _path_matches(baseline_path: str, finding_path: str) -> bool:
    """Suffix-tolerant path equality.

    The baseline stores repo-root-relative paths ("src/repro/obs/export.py")
    while a scan rooted at ``src`` may report "repro/obs/export.py" (or an
    absolute path when run from elsewhere) -- treat one being a ``/``-suffix
    of the other as a match.
    """
    a = baseline_path.strip("/")
    b = finding_path.replace("\\", "/").strip("/")
    return a == b or a.endswith("/" + b) or b.endswith("/" + a)


def find_default_baseline(start: Union[str, Path] = ".") -> Optional[Path]:
    """Nearest ``staticcheck-baseline.json`` walking up from ``start``."""
    current = Path(start).resolve()
    for candidate in [current] + list(current.parents):
        path = candidate / DEFAULT_BASELINE_NAME
        if path.is_file():
            return path
    return None
