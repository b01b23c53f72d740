"""The one artifact envelope: every registered schema, mutated.

Real documents (torus-3x4 with every observer on, hosts, one cut; a
bench document; a chaos reproducer) are walked
against their schema tables: deleting each required key and
replacing each leaf with a wrong-typed value must raise ``SchemaError``
with a ``$.``-rooted path (where the table catches it, the message of the
recursive walk kept in ``tests/naive_artifact.py``), and the untouched
document must round-trip ``write`` -> ``read`` to equal bytes: the
indented ones to the stdlib's own ``json.dumps(indent=...)``, the
run-sized ones in the line layout, which is held to that naive reference
over generated documents too.
Every one of them, and every document committed to the tree, must
render through ``artifact.render``.
"""

import copy
import importlib
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import MS, SEC
from repro.network import Network
from repro.obs import artifact
from repro.obs.artifact import Atom, Enum, Map, Opt, Schema, SchemaError
from repro.scenario import attach_pair, drive_scenario
from repro.topology.generators import resolve_topology
from repro.traffic.workload import TrafficConfig
from tests import naive_artifact

TAGS = sorted(artifact.PROVIDERS)


@pytest.fixture(scope="module")
def real_docs(tmp_path_factory):
    from repro.chaos.campaign import CampaignConfig, CampaignRunner
    from repro.chaos.replay import reproducer_dict
    from repro.obs.export import bench_document, bench_result

    spec = resolve_topology("torus-3x4")
    net = Network(
        spec, seed=3, flight=True, timeseries=True, inband=True, control=True,
        traffic=TrafficConfig(flows=200),
    )
    attach_pair(net, period_ns=5 * MS, data_bytes=512)
    drive_scenario(net, [(0, 1)], load_ns=int(0.3 * SEC))

    def bench(ms):
        rows = [["ring", ms, True], ["torus", None, False]]
        result = bench_result("r", "t", ["topology", "ms", "ok"], rows, telemetry={"k": 1})
        return bench_document("demo", title="t", seed=7, results=[result])

    runner = CampaignRunner(CampaignConfig(topology="ring-4", schedules=1))
    scratch = tmp_path_factory.mktemp("observers")
    docs = [
        net.export_flight_trace(str(scratch / "trace.json")),
        net.export_timeseries(str(scratch / "timeseries.json")),
        net.inband_doc(),
        net.traffic_doc(),
        bench(1.5),
        reproducer_dict(runner.sample_schedule(0), violations=["x"], original_events=9),
    ]
    by_tag = {doc["schema"]: doc for doc in docs}
    assert sorted(by_tag) == TAGS, "one real document per registered schema"
    return by_tag


_DELETE = object()


def _wrong_values(spec):
    """Values the leaf (or container) ``spec`` must reject."""
    if isinstance(spec, Opt):
        return _wrong_values(spec.spec)
    if isinstance(spec, Enum):
        return ["no-such-choice", 7]
    if isinstance(spec, Atom):
        wrong = [[], "x" if str not in spec.types else object()]
        if int in spec.types and bool not in spec.types:
            wrong.append(True)
        if spec.minimum is not None:
            wrong.append(spec.minimum - 1)
        if spec.nonempty:
            wrong.append("")
        return wrong
    if isinstance(spec, (dict, Map)):
        return [[], "x"]
    return [{}, "x"]  # list / tuple specs want an array


def _mutations(spec, value, where, seen):
    """Yield ``(container, key, wrong, label)`` for every position of
    ``spec`` the document reaches -- once per position, array indices
    and map keys collapsed -- where ``wrong`` is a value that position
    must reject, or ``_DELETE`` for a required key."""
    if isinstance(spec, Opt):
        spec = spec.spec
    if isinstance(spec, dict):
        children = [(key, sub, f"{where}.{key}") for key, sub in spec.items()]
    elif isinstance(spec, Map):
        children = [(key, spec.values, f"{where}.*") for key in value]
    elif isinstance(spec, list):
        children = [(i, spec[0], f"{where}[*]") for i in range(len(value))]
    elif isinstance(spec, tuple):
        children = [(i, sub, f"{where}[{i}]") for i, sub in enumerate(spec)]
    else:
        return  # a leaf: its parent already yielded its mutations
    for key, sub, label in children:
        if isinstance(value, dict) and value.get(key) is None:
            continue  # an Opt position this document leaves empty
        if label not in seen:
            seen.add(label)
            if isinstance(spec, dict) and not isinstance(sub, Opt):
                yield value, key, _DELETE, f"delete {label}"
            for wrong in _wrong_values(sub):
                yield value, key, wrong, f"{label} = {wrong!r}"
        yield from _mutations(sub, value[key], label, seen)


@pytest.mark.parametrize("tag", TAGS)
def test_every_spec_position_rejects_a_wrong_value(tag, real_docs):
    doc = copy.deepcopy(real_docs[tag])
    spec = importlib.import_module(artifact.PROVIDERS[tag]).ARTIFACT.spec
    seen = set()
    for container, key, wrong, label in _mutations(spec, doc, "$", seen):
        original = container[key]
        if wrong is _DELETE:
            del container[key]
        else:
            container[key] = wrong
        with pytest.raises(SchemaError) as excinfo:
            artifact.validate(doc, tag)
            pytest.fail(f"{tag}: mutation not rejected: {label}")
        # the message the recursive walk (tests/naive_artifact.py) gave
        bad = naive_artifact.defect(spec, doc)
        container[key] = original
        assert str(excinfo.value).startswith("$."), label
        if bad:  # else a rules hook rejected it
            assert str(excinfo.value) == f"${bad[0]}: {bad[1]}", label
    assert len(seen) >= len(spec), f"{tag}: only {sorted(seen)} reached"
    artifact.validate(doc, tag)  # every mutation was undone


#: integers that a bare ``isinstance(x, int)`` used to let ``True`` into
BOOL_AS_INT = [
    ("repro.bench/1", ["seed"]),
    ("repro.obs.timeseries/1", ["marks", 0, "t_ns"]),
    ("repro.obs.flight/1", ["traceEvents", 0, "pid"]),
    ("repro.obs.flight/1", ["traceEvents", 0, "tid"]),
    ("repro.obs.flight/1", ["traceEvents", "X", "dur"]),
]


@pytest.mark.parametrize("tag, path", BOOL_AS_INT, ids=[f"{t}:{p[-1]}" for t, p in BOOL_AS_INT])
def test_bool_is_not_an_int(tag, path, real_docs):
    container = real_docs[tag]
    for step in path[:-1]:
        if step == "X":  # the first complete event (the only phase with a dur)
            container = next(e for e in container if e["ph"] == "X")
        else:
            container = container[step]
    original = container[path[-1]]
    assert isinstance(original, int) and not isinstance(original, bool)
    container[path[-1]] = True
    try:
        with pytest.raises(SchemaError, match=rf"^\$\..*{path[-1]}"):
            artifact.validate(real_docs[tag], tag)
    finally:
        container[path[-1]] = original


@pytest.mark.parametrize("tag", TAGS)
def test_untouched_document_round_trips_to_equal_bytes(tag, real_docs, tmp_path):
    first = tmp_path / "deep" / "first.json"
    artifact.write(str(first), real_docs[tag])  # creates the parent directory
    loaded = artifact.read(str(first), tag)
    assert loaded == real_docs[tag]
    second = tmp_path / "second.json"
    artifact.write(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    schema = importlib.import_module(artifact.PROVIDERS[tag]).ARTIFACT
    assert (schema.indent is None) == (tag in LINE_LAYOUT)
    if schema.indent is None:
        assert_line_layout(first.read_text(), loaded)
    else:  # the bytes every committed document and fixture of the tag holds
        want = json.dumps(real_docs[tag], indent=schema.indent, sort_keys=schema.sort_keys)
        assert first.read_text() == want + "\n"


# -- the line layout against the stdlib's indented dump ----------------------------------

#: the run-sized documents, written one top-level key / array item per line
LINE_LAYOUT = {"repro.obs.flight/1", "repro.obs.timeseries/1", "repro.obs.inband/2"}


def assert_line_layout(text, doc):
    """``text`` is ``doc`` with each top-level key on a line of its own
    and each item of a non-empty top-level array on a line of its own."""
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    body = iter(lines[1:-2])
    last = len(doc) - 1
    for n, (key, value) in enumerate(doc.items()):
        head = json.dumps(key) + ": "
        line = next(body)
        assert line.startswith(head)
        comma = "," if n < last else ""
        if isinstance(value, list) and value:
            assert line == head + "["
            for i, item in enumerate(value):
                line = next(body)
                sep = "," if i < len(value) - 1 else ""
                assert line.endswith(sep) and json.loads(line[: len(line) - len(sep)]) == item
            assert next(body) == "]" + comma
        else:
            assert line.endswith(comma)
            assert json.loads(line[len(head) : len(line) - len(comma)]) == value
    assert next(body, None) is None


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 0.1])
    | st.text()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
#: top-level entries: scalars, nested containers, and arrays (empty or not)
_TOP = st.dictionaries(st.text(), _VALUES | st.lists(_VALUES, max_size=6), max_size=6)
_PROBE_TAG = "repro.layout-probe/1"


@pytest.fixture(scope="module")
def probe_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("layout") / "probe.json")


@settings(max_examples=150, deadline=None)
@given(top=_TOP, sort_keys=st.booleans())
def test_line_layout_loads_equal_to_the_indented_dump(top, sort_keys, probe_path):
    """Differential against ``json.dump(doc, indent=2)``, the writer the
    line layout replaced for the run-sized documents: the two files load
    to the same value, floats' signs, ints' kinds and key order included."""
    doc = {"schema": _PROBE_TAG, **{k: v for k, v in top.items() if k != "schema"}}
    provider = types.ModuleType("layout_probe")
    provider.ARTIFACT = Schema({}, indent=None, sort_keys=sort_keys)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, provider.__name__, provider)
        patch.setitem(artifact.PROVIDERS, _PROBE_TAG, provider.__name__)
        artifact.write(probe_path, doc)
    with open(probe_path) as fh:
        text = fh.read()
    reference = json.dumps(doc, indent=2, sort_keys=sort_keys)
    assert json.dumps(json.loads(text)) == json.dumps(json.loads(reference))
    assert_line_layout(text, json.loads(reference))


def test_expected_tag_mismatch_and_unknown_tags_are_schema_errors(real_docs):
    timeseries = real_docs["repro.obs.timeseries/1"]
    with pytest.raises(SchemaError, match=r"\$\.schema: expected 'repro.obs.flight/1'"):
        artifact.validate(timeseries, "repro.obs.flight/1")
    with pytest.raises(SchemaError, match=r"\$\.schema: unknown schema"):
        artifact.validate({"schema": "repro.nope/1"})
    with pytest.raises(SchemaError, match=r"^\$: expected object"):
        artifact.validate([])


def test_read_trace_on_a_timeseries_file_fails_on_the_tag(real_docs, tmp_path):
    from repro.obs.perfetto import read_trace

    path = tmp_path / "ts.json"
    artifact.write(str(path), real_docs["repro.obs.timeseries/1"])
    with pytest.raises(SchemaError, match=r"\$\.schema"):
        read_trace(str(path))


# -- artifact.render: one renderer per schema, over every document we have ---------------

REPO = Path(__file__).resolve().parents[2]


def _committed():
    """Every repro.*/1 document committed to the tree: the tracked files,
    not what is on disk (a bench run leaves untracked ``BENCH_*.json``
    beside them).  Without a git checkout to list them from, one case that
    fails and says why, so the rest of this module still runs."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--", "benchmarks/results/BENCH_*.json",
             "tests/chaos/fixtures/*.json", "tests/traffic/fixtures/*.json"],
            cwd=REPO, check=True, capture_output=True, text=True,
        ).stdout.split("\0")
    except (OSError, subprocess.CalledProcessError) as exc:
        return [pytest.param(f"git ls-files failed: {exc}", id="no-git-checkout")]
    return [pytest.param(REPO / path, id=Path(path).name) for path in sorted(listed) if path]


COMMITTED = _committed()

#: the tags whose provider declares a renderer; the rest read ``valid <tag>``
RENDERED = {
    "repro.bench/1",
    "repro.obs.flight/1",
    "repro.obs.inband/2",
    "repro.obs.timeseries/1",
    "repro.traffic/1",
}


@pytest.mark.parametrize("tag", TAGS)
def test_every_schema_renders_its_real_document_and_no_other(tag, real_docs):
    schema = importlib.import_module(artifact.PROVIDERS[tag]).ARTIFACT
    assert (schema.render is not None) == (tag in RENDERED)
    text = artifact.render(artifact.validate(real_docs[tag], tag))
    assert text.strip()
    if schema.render is None:
        assert text == f"valid {tag}"
    else:
        # the same text from the file as from the live document: JSON
        # turns tuples into lists and int keys into strings on the way
        assert artifact.render(json.loads(json.dumps(real_docs[tag]))) == text
    other = real_docs[TAGS[TAGS.index(tag) - 1]]
    with pytest.raises(SchemaError, match=r"^\$\.schema: expected"):
        artifact.render(artifact.validate(other, tag))


@pytest.mark.parametrize("path", COMMITTED)
def test_every_committed_document_renders(path):
    assert isinstance(path, Path), path
    assert len(COMMITTED) >= 17
    doc = artifact.read(str(path))
    text = artifact.render(doc)
    assert text.strip()
    if doc["schema"] == "repro.bench/1":
        for result in doc["results"]:
            assert f"== {result['title']} ==" in text
            assert all(str(cell) in text for row in result["rows"] for cell in row)


def test_rendered_content_of_the_observer_documents(real_docs):
    """What the per-layer CLIs and doctor sections used to print from a
    live network, now asserted of the documents' renderers."""
    flight = artifact.render(real_docs["repro.obs.flight/1"])
    assert "events recorded on 12 components" in flight
    assert "12 table loads, 12 causally rooted at a port-state transition" in flight
    assert "message wave of epoch" in flight
    assert flight.count("why did sw") == 12
    assert "[sw0] port-state (new=s.dead, old=s.switch.good, port=1" in flight

    series = artifact.render(real_docs["repro.obs.timeseries/1"])
    assert "samples every 50 ms" in series and "0 ticks evicted" in series
    assert "sw11" in series and "fifo^" in series
    assert "traffic SLO:" in series  # the engine's collectors were sampled
    assert "recent reconfiguration events:" in series and "table-loaded" in series

    paths = artifact.render(real_docs["repro.obs.inband/2"])
    assert "hop records on" in paths and "drops table-discard=" in paths
    assert "-> " in paths and "path: sw0:p12>" in paths
    assert "path change(s) detected" in paths
    assert "blackout" in paths and "link congestion" in paths and "samples  mean" in paths

    traffic = artifact.render(real_docs["repro.traffic/1"])
    assert "traffic SLO report" in traffic and "x200 flows" in traffic
    assert "per-epoch goodput / blackout cost:" in traffic


# -- python -m repro.obs validate / report -------------------------------------------------


def test_cli_validate_dispatches_on_each_files_tag(real_docs, tmp_path, capsys):
    from repro.obs.__main__ import main

    paths = []
    for i, tag in enumerate(TAGS):
        paths.append(str(tmp_path / f"doc{i}.json"))
        artifact.write(paths[-1], real_docs[tag])
    assert main(["validate", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{path}: valid {tag}" for path, tag in zip(paths, TAGS)]


@pytest.mark.parametrize("command", ["validate", "report"])
def test_cli_reports_every_invalid_file_and_still_exits_1(command, real_docs, tmp_path, capsys):
    from repro.obs.__main__ import main

    good = str(tmp_path / "good.json")
    artifact.write(good, real_docs["repro.bench/1"])
    bad = tmp_path / "bad.json"
    # a row wider than its header: a known tag that fails its schema's rules
    bad.write_text(json.dumps({
        "schema": "repro.bench/1", "bench": "scaling", "title": "", "seed": 0,
        "results": [{"name": "rungs", "title": "", "notes": "",
                     "headers": ["topology"], "rows": [["ring-4", 4]]}],
    }))
    junk = tmp_path / "junk.json"
    junk.write_text("not json {")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    missing = str(tmp_path / "missing.json")
    assert main([command, good, str(bad), missing, str(junk), str(array), good]) == 1
    captured = capsys.readouterr()
    # both good files are shown: a defect hides nothing that follows it
    shown = f"{good}: valid repro.bench/1" if command == "validate" else f"== {good} ("
    assert captured.out.count(shown) == 2
    assert captured.err.splitlines() == [
        line for line in captured.err.splitlines() if ": INVALID $" in line
    ]
    for path, why in [
        (bad, "$.results[0].rows[0]: row width 2 != header width 1"),
        (missing, "$: unreadable"),
        (junk, "$: not JSON"),
        (array, "$: expected object"),
    ]:
        assert sum(f"{path}: INVALID {why}" in line for line in captured.err.splitlines()) == 1


def test_cli_takes_a_directory_as_its_json_files_sorted_not_recursed(real_docs, tmp_path, capsys):
    from repro.obs.__main__ import main

    (tmp_path / "deeper").mkdir()
    for name in ("b.json", "a.json", "deeper/c.json"):
        artifact.write(str(tmp_path / name), real_docs["repro.bench/1"])
    (tmp_path / "notes.txt").write_text("not an artifact")
    assert main(["validate", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'a.json'}: valid repro.bench/1",
        f"{tmp_path / 'b.json'}: valid repro.bench/1",
    ]
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("== t ==") == 2  # the demo result's title, per file


def test_read_reports_unreadable_and_non_json_files_as_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match=r"^\$: unreadable: .*missing\.json"):
        artifact.read(str(tmp_path / "missing.json"))
    with pytest.raises(SchemaError, match=r"^\$: unreadable"):
        artifact.read(str(tmp_path))  # a directory
    (tmp_path / "junk.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(SchemaError, match=r"^\$: not JSON"):
        artifact.read(str(tmp_path / "junk.json"))


# -- every tag in the tree is registered ------------------------------------------------

#: literals that look like a tag but name no document on disk: the
#: artifact module's docstring placeholder
UNREGISTERED = {"repro.x/1"}


def test_every_schema_literal_under_src_is_a_registered_provider():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    literals = set()
    for path in src.rglob("*.py"):
        literals.update(re.findall(r"repro\.[a-z_.\-]+/[0-9]+", path.read_text()))
    assert literals - set(artifact.PROVIDERS) == UNREGISTERED
    assert set(artifact.PROVIDERS) <= literals
