"""Checkpoint format: manifest commit protocol and discovery."""

from __future__ import annotations

import json
import os

import pytest

from repro.ckpt.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    atomic_write_bytes,
    fingerprint,
    latest_checkpoint,
    read_manifest,
    write_manifest,
)


def test_read_manifest_missing_directory(tmp_path):
    with pytest.raises(CheckpointError, match="no committed checkpoint"):
        read_manifest(str(tmp_path / "nope"))


def test_read_manifest_requires_commit_record(tmp_path):
    # Shards without a manifest are an uncommitted (interrupted) save.
    (tmp_path / "node_0000.npz").write_bytes(b"shard")
    with pytest.raises(CheckpointError, match="no committed checkpoint"):
        read_manifest(str(tmp_path))


def test_read_manifest_rejects_future_version(tmp_path):
    # ... and the previous one: a chain written by an older build.
    for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
        write_manifest(str(tmp_path), {"format_version": version})
        with pytest.raises(
            CheckpointError,
            match=f"v{version} is not supported .*reads v{FORMAT_VERSION}",
        ):
            read_manifest(str(tmp_path))


def test_read_manifest_rejects_garbage(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(CheckpointError, match="unreadable"):
        read_manifest(str(tmp_path))


def test_write_manifest_is_atomic_and_round_trips(tmp_path):
    manifest = {"format_version": FORMAT_VERSION, "rounds_completed": 3}
    write_manifest(str(tmp_path), manifest)
    assert read_manifest(str(tmp_path)) == manifest
    assert os.listdir(tmp_path) == [MANIFEST_NAME]  # no temp debris


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    def boom(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_bytes(str(tmp_path / "x.bin"), b"payload")
    assert os.listdir(tmp_path) == []


def test_fingerprint_ignores_ordering_and_sequence_type():
    a = fingerprint({"b": (16, 8), "a": 1})
    b = fingerprint({"a": 1, "b": [16, 8]})
    assert a == b
    assert fingerprint({"a": 2, "b": [16, 8]}) != a


def test_latest_checkpoint_picks_newest_committed(tmp_path):
    for rounds in (2, 4, 6):
        sub = tmp_path / f"round_{rounds:06d}"
        sub.mkdir()
        write_manifest(
            str(sub),
            {"format_version": FORMAT_VERSION, "rounds_completed": rounds},
        )
    # An interrupted save (no manifest) must never be selected.
    (tmp_path / "round_000008").mkdir()
    assert latest_checkpoint(str(tmp_path)) == str(tmp_path / "round_000006")
    assert latest_checkpoint(str(tmp_path), upto_round=5) == str(
        tmp_path / "round_000004"
    )
    assert latest_checkpoint(str(tmp_path), upto_round=1) is None
    assert latest_checkpoint(str(tmp_path / "missing")) is None


def test_latest_checkpoint_skips_unreadable_manifests(tmp_path):
    sub = tmp_path / "round_000002"
    sub.mkdir()
    (sub / MANIFEST_NAME).write_text(json.dumps({"format_version": 999}))
    assert latest_checkpoint(str(tmp_path)) is None
