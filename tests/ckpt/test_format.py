"""Checkpoint format: manifest commit protocol and discovery."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.ckpt.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    atomic_write_bytes,
    fingerprint,
    latest_checkpoint,
    node_shard_name,
    read_manifest,
    read_shard,
    write_manifest,
    write_shard,
)


def test_read_manifest_missing_directory(tmp_path):
    with pytest.raises(CheckpointError, match="no committed checkpoint"):
        read_manifest(str(tmp_path / "nope"))


def test_read_manifest_requires_commit_record(tmp_path):
    # Shards without a manifest are an uncommitted (interrupted) save.
    (tmp_path / node_shard_name(0)).write_bytes(b"shard")
    with pytest.raises(CheckpointError, match="no committed checkpoint"):
        read_manifest(str(tmp_path))


def test_shard_round_trips_every_array_it_holds(tmp_path):
    """Scalars, strings, empty and strided arrays come back with their
    dtype, shape and bytes, as writable arrays; the digest is of the file."""
    arrays = {
        "scalar": np.int64(7),
        "names": np.array(["ssd_read", "ckpt_write"]),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "strided": np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2],
    }
    nbytes, digest = write_shard(str(tmp_path), "s.shard", arrays)
    data = (tmp_path / "s.shard").read_bytes()
    assert (nbytes, digest) == (len(data), hashlib.sha256(data).hexdigest())
    got, size = read_shard(str(tmp_path), "s.shard", digest)
    assert size == nbytes and list(got) == list(arrays)
    for key, want in arrays.items():
        want = np.asarray(want)
        assert got[key].dtype == want.dtype and got[key].shape == want.shape
        assert np.array_equal(got[key], want) and got[key].flags.writeable
    with pytest.raises(ValueError, match="object dtype"):
        write_shard(str(tmp_path), "o.shard", {"o": np.array([None])})


def test_shard_read_refuses_a_file_that_is_not_a_shard(tmp_path):
    """A digest can vouch for bytes no shard writer produced: refused as
    malformed, not decoded."""
    (tmp_path / "s.shard").write_bytes(b"not a shard")
    digest = hashlib.sha256(b"not a shard").hexdigest()
    with pytest.raises(CheckpointError, match="is malformed"):
        read_shard(str(tmp_path), "s.shard", digest)


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
    assert latest_checkpoint(str(tmp_path / "missing")) is None


def test_latest_checkpoint_skips_unreadable_manifests(tmp_path):
    sub = tmp_path / "round_000002"
    sub.mkdir()
    (sub / MANIFEST_NAME).write_text(json.dumps({"format_version": 999}))
    assert latest_checkpoint(str(tmp_path)) is None
