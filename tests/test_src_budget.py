"""The north star's "net ``src/`` line count" as a ratchet.

``BUDGET`` is the total this tree had when the constant was last set.
Deleting code leaves slack -- lower the constant to bank it.  It does not
go back up (ROADMAP: "the same behaviour and speed from the simplest
design and the least code"; tooling is already ~1.7x the protocol it
wraps): a change that needs lines pays for them by deleting others.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: physical lines under src/repro/**/*.py when the constant was last set.
#: It only goes down: a change that deletes lines lowers it to the new
#: count, and CHANGES.md reports the lines DELETED apart from those
#: RE-HOMED (moved under tests/ or benchmarks/, which is not a reduction),
#: with the tests/ delta beside them; CHANGES.md is the history.
BUDGET = 14258


#: README and DESIGN.md describe the current system, and a change leaves
#: each no longer than it found it (ROADMAP): their line counts when the
#: constant was last set, which only go down
DOC_CEILINGS = {"README.md": 1245, "DESIGN.md": 1606}


def _lines(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh)


def test_src_line_count_stays_within_budget():
    per_package = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        per_package[package] = per_package.get(package, 0) + _lines(path)
    total = sum(per_package.values())
    for package, count in sorted(per_package.items()):
        print(f"{package:<14} {count:>6}")
    print(f"{'total':<14} {total:>6}  (budget {BUDGET})")
    assert total <= BUDGET, (
        f"src/repro grew to {total} lines, over the {BUDGET}-line budget: "
        "delete something to pay for the new lines"
    )


def test_the_two_long_documents_stay_within_their_ceilings():
    for name, ceiling in DOC_CEILINGS.items():
        assert _lines(ROOT / name) <= ceiling, f"{name} grew past its {ceiling}-line ceiling"
