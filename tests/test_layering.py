"""The substrate does not import its tooling.

The simulated system (``sim`` kernel, ``net`` hardware, ``core``
Autopilot, ``host``, ``topology``) is what the paper describes; ``obs``,
``traffic``, ``chaos``, ``analysis`` and ``staticcheck`` observe, load,
break and check it.  Dependencies point one way -- ``repro.network`` is
where the two meet -- and there is no allow-list.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SUBSTRATE = ("sim", "net", "core", "host", "topology")
TOOLING = ("obs", "traffic", "chaos", "analysis", "staticcheck")


def _imported_modules(path):
    """Every module a file imports, wherever the statement sits
    (function bodies and ``TYPE_CHECKING`` blocks included)."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against the file's package
                parent = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*parent, base] if base else parent)
            yield node.lineno, base
            for alias in node.names:  # "from repro import obs"
                yield node.lineno, f"{base}.{alias.name}"


def test_substrate_imports_no_tooling():
    files = [path for layer in SUBSTRATE for path in sorted((SRC / layer).rglob("*.py"))]
    assert len(files) > 30
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {module}"
        for path in files
        for lineno, module in _imported_modules(path)
        if module.startswith(tuple(f"repro.{tool}" for tool in TOOLING))
    ]
    assert offenders == []


def test_src_imports_only_stdlib_and_repro():
    """``pyproject.toml`` declares no runtime dependency: every import
    under ``src/repro`` -- function bodies included -- is the standard
    library or ``repro`` itself.  networkx is a test oracle."""
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 90
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {module}"
        for path in files
        for lineno, module in _imported_modules(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"repro"}
    ]
    assert offenders == []


def test_importing_every_entry_point_loads_no_third_party_package():
    """The same claim at run time, where a lazy or conditional import
    would show: after importing the library and every CLI -- under ``-S``,
    so with no site-packages to find anything in -- ``sys.modules`` holds
    the standard library and ``repro`` only."""
    program = (
        "import sys\n"
        "import repro.network, repro.chaos.campaign, repro.obs.__main__\n"
        "import repro.traffic.__main__, repro.staticcheck.__main__\n"
        "names = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(names - sys.stdlib_module_names - {'repro', '__main__'}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", program],
        env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
