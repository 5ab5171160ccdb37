"""repro.canon: canonical text forms, digests and crash-aware file I/O.

Also covers the two failure modes the canonical-data layer fixes for its
callers: a campaign manifest torn by a crash mid-write, and a spec dict
missing a required field surfacing as a Python traceback instead of an
``error:`` line.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
from repro.campaigns.store import CampaignStore
from repro.canon import (
    append_line,
    atomic_write_text,
    canonical_json,
    canonical_line,
    digest16,
    read_jsonl,
    torn_tail,
)
from repro.cli import main


class TestTextForms:
    def test_the_two_forms_stay_distinct(self):
        payload = {"b": [1, 2], "a": {"y": None, "x": 1.5}}
        assert canonical_json(payload) == (
            '{"a": {"x": 1.5, "y": null}, "b": [1, 2]}')
        assert canonical_line(payload) == '{"a":{"x":1.5,"y":null},"b":[1,2]}'
        assert canonical_json(payload, indent=2) == json.dumps(
            payload, sort_keys=True, indent=2)

    def test_digest16_of_text_and_bytes(self):
        expected = hashlib.sha256(b"provenance").hexdigest()[:16]
        assert digest16("provenance") == expected
        assert digest16(b"provenance") == expected
        assert len(digest16("")) == 16


class TestReadJsonl:
    def test_rows_and_bad_lines_with_file_line_numbers(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\n\nnot json\n[2]\n{"torn', encoding="utf-8")
        rows, bad = read_jsonl(path)
        assert rows == [(1, {"a": 1}), (4, [2])]
        assert bad == [3, 5]
        assert torn_tail(rows, bad) == 5

    def test_torn_tail_only_for_the_last_content_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('oops\n{"a":1}\n\n', encoding="utf-8")
        rows, bad = read_jsonl(path)
        assert bad == [1]
        assert torn_tail(rows, bad) is None
        assert torn_tail([], [4]) == 4
        assert torn_tail([(1, {})], []) is None

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl(tmp_path / "absent.jsonl")


class TestWrites:
    def test_append_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, canonical_line({"n": 1}))
        append_line(path, canonical_line({"n": 2}))
        assert path.read_text() == '{"n":1}\n{"n":2}\n'

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old contents")
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_crash_before_rename_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        path.write_text("old")

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot")),
        faults=FaultPlanSpec(transient_ccf=6, permanent_sm=2, seu=2, seed=1),
        shards=2,
    )


class TestCampaignManifestIsAtomic:
    def test_crash_mid_write_leaves_a_reinitialisable_store(
            self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path / "campaign")
        spec = _campaign()

        def crash(src, dst):
            raise OSError("simulated crash mid-write")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="simulated crash"):
                store.initialise(spec)
        # no torn manifest: the directory is not yet a campaign
        assert not store.exists()
        store.initialise(spec)
        assert store.load_spec() == spec
        assert store.load_spec().config_hash == spec.config_hash


class TestSpecErrorsReachTheCli:
    def test_missing_kernel_field_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": {"kernels": [{"name": "k"}]}}))
        assert main(["run", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "grid_blocks" in err
        assert "Traceback" not in err
