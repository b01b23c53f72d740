"""The repro.bench/1 export schema: construction, validation, round-trip."""

import json

import pytest

from repro.obs import artifact
from repro.obs.artifact import SchemaError
from repro.obs.export import SCHEMA, bench_document, bench_result


def make_doc():
    return bench_document(
        "reconfiguration",
        title="E1",
        seed=7,
        results=[
            bench_result(
                "src_lan", "SRC LAN", ["impl", "ms"],
                [["tuned", 412.5], ["naive", 4800]],
                notes="n",
                telemetry={"spans": []},
            )
        ],
    )


def test_valid_document_passes():
    doc = make_doc()
    assert artifact.validate(doc, SCHEMA) is doc
    assert doc["schema"] == SCHEMA


def test_round_trip_through_disk(tmp_path):
    path = tmp_path / "out.json"
    doc = make_doc()
    artifact.write(str(path), doc)
    loaded = artifact.read(str(path), SCHEMA)
    assert loaded == doc
    # the on-disk form is plain JSON, newline-terminated
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["bench"] == "reconfiguration"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.__setitem__("schema", "repro.bench/0"), "$.schema"),
        (lambda d: d.__setitem__("bench", ""), "$.bench"),
        (lambda d: d.__setitem__("seed", "7"), "$.seed"),
        (lambda d: d.__setitem__("results", {}), "$.results"),
        (lambda d: d["results"][0].__setitem__("headers", ["a", 1]), "headers"),
        (lambda d: d["results"][0]["rows"].append(["too", "wide", "row"]), "width"),
        (lambda d: d["results"][0]["rows"].append([object(), 1]), "scalar"),
        (lambda d: d["results"][0].__setitem__("telemetry", []), "telemetry"),
    ],
)
def test_malformed_documents_are_rejected(mutate, fragment):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as excinfo:
        artifact.validate(doc, SCHEMA)
    assert fragment in str(excinfo.value)


def test_write_document_refuses_invalid(tmp_path):
    doc = make_doc()
    doc["results"][0]["rows"][0] = [1]  # width mismatch
    path = tmp_path / "bad.json"
    with pytest.raises(SchemaError):
        artifact.write(str(path), doc)
    assert not path.exists()


def test_null_and_bool_cells_are_scalars():
    doc = bench_document("b", results=[
        bench_result("r", "t", ["a", "b", "c"], [[None, True, 1.5]])
    ])
    artifact.validate(doc, SCHEMA)
