"""The identity manifest (``tests/identity.py``): every row tier-1 can
afford equals the committed one, and the two documents committed in full
are the bytes their rows hash."""

import hashlib

import pytest

from tests import identity

COMMITTED = identity.committed()

#: row -> the document committed in full, for the diffs people read
KEPT_IN_FULL = {
    "chaos/torus-3x4_seed0": "tests/chaos/fixtures/smoke_torus-3x4_seed0.json",
    "traffic/src-lan-30_default": "tests/traffic/fixtures/srclan_smoke.traffic.json",
}


def test_the_manifest_has_one_entry_per_row():
    assert sorted(COMMITTED) == sorted(identity.ROWS)


@pytest.mark.parametrize("row", sorted(set(identity.ROWS) - identity.CI_ONLY))
def test_row_equals_the_committed_manifest(row):
    assert identity.ROWS[row]() == COMMITTED[row]


@pytest.mark.parametrize("row", sorted(KEPT_IN_FULL))
def test_document_kept_in_full_is_the_one_its_row_hashes(row):
    data = (identity.ROOT / KEPT_IN_FULL[row]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == COMMITTED[row]


def test_a_moved_row_is_named_and_fails(monkeypatch, capsys):
    rows = {row: (lambda row=row: COMMITTED[row]) for row in COMMITTED}
    rows["trace/noisy_link"] = lambda: "0" * 64
    monkeypatch.setattr(identity, "ROWS", rows)
    assert identity.main() == 1
    out, err = capsys.readouterr()
    assert err == f"trace/noisy_link: {'0' * 64} != committed {COMMITTED['trace/noisy_link']}\n"
    assert out.replace("0" * 64, COMMITTED["trace/noisy_link"]) == identity.FIXTURE.read_text()

    del rows["trace/noisy_link"]
    assert identity.main() == 1
    assert "trace/noisy_link: no such row != committed" in capsys.readouterr().err
