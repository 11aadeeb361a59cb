"""Checkpoint format: manifest commit protocol and discovery."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

import repro.ckpt.format as format_module
from repro.ckpt.format import (
    _HEADER_AT,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SHARD_MAGIC,
    CheckpointError,
    _aligned,
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


def split_shard(path) -> tuple[dict, bytes]:
    """A shard file's parsed JSON header and the array bytes behind it."""
    data = path.read_bytes()
    length = int.from_bytes(data[len(SHARD_MAGIC) : _HEADER_AT], "little")
    header = json.loads(data[_HEADER_AT : _HEADER_AT + length])
    return header, data[_aligned(_HEADER_AT + length) :]


def test_shard_round_trips_every_array_it_holds(tmp_path, monkeypatch):
    """Scalars, strings, empty, strided, bool, float and integer arrays
    come back with their dtype, shape and bytes, as writable arrays; the
    digest is of the file.  Only non-negative integer arrays wider than
    their maximum needs are stored narrower, which makes the file
    smaller than the same arrays stored at their own width."""
    keys = np.arange(0, 2**32, 2**20, dtype=np.uint64)
    keys[-1] = 2**32 - 1
    arrays = {
        "scalar": np.int64(7),
        "names": np.array(["ssd_read", "ckpt_write"]),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "empty_keys": np.zeros(0, dtype=np.uint64),
        "strided": np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2],
        "keys": keys,
        "counts": np.array([[1, 70], [3, 255]], dtype=np.int64),
        "wide": np.array([1, 2**32], dtype=np.int64),
        "negative": np.array([5, -1], dtype=np.int64),
        "mask": np.array([True, False, True]),
        "packed": np.packbits(np.array([True, False, True])),
        "f32": np.array([0.5, -2.0], dtype=np.float32),
        "f64": np.array([1e300, -0.0], dtype=np.float64),
    }
    stored = {"keys": "<u4", "counts": "|u1"}
    nbytes, digest = write_shard(str(tmp_path), "s.shard", arrays)
    data = (tmp_path / "s.shard").read_bytes()
    assert (nbytes, digest) == (len(data), hashlib.sha256(data).hexdigest())
    header = {e[0]: e for e in split_shard(tmp_path / "s.shard")[0]["arrays"]}
    for key, want in arrays.items():
        assert header[key][1] == np.asarray(want).dtype.str
        assert header[key][4:] == ([stored[key]] if key in stored else [])
    got, size = read_shard(str(tmp_path), "s.shard", digest)
    assert size == nbytes and list(got) == list(arrays)
    for key, want in arrays.items():
        want = np.asarray(want)
        assert got[key].dtype == want.dtype and got[key].shape == want.shape
        assert np.array_equal(got[key], want) and got[key].flags.writeable
    monkeypatch.setattr(format_module, "_narrowed", lambda a: None)
    wide_bytes, _ = write_shard(str(tmp_path), "wide.shard", arrays)
    assert nbytes < wide_bytes
    with pytest.raises(ValueError, match="object dtype"):
        write_shard(str(tmp_path), "o.shard", {"o": np.array([None])})


def test_shard_read_refuses_a_file_that_is_not_a_shard(tmp_path):
    """A digest can vouch for bytes no shard writer produced: refused as
    malformed, not decoded."""
    (tmp_path / "s.shard").write_bytes(b"not a shard")
    digest = hashlib.sha256(b"not a shard").hexdigest()
    with pytest.raises(CheckpointError, match="is malformed"):
        read_shard(str(tmp_path), "s.shard", digest)


def forge_shard(path, arrays, edit) -> str:
    """Write ``arrays`` as a shard, let ``edit`` rewrite its header's
    entries, and re-emit the same array bytes behind the forged header;
    returns the digest a manifest would record for the forged file."""
    write_shard(str(path.parent), path.name, arrays)
    header, body = split_shard(path)
    edit(header["arrays"])
    blob = json.dumps(header, separators=(",", ":")).encode()
    head = SHARD_MAGIC + len(blob).to_bytes(8, "little") + blob
    forged = head.ljust(_aligned(len(head)), b"\0") + body
    path.write_bytes(forged)
    return hashlib.sha256(forged).hexdigest()


@pytest.mark.parametrize(
    "field, value",
    [(2, [-1]), (3, -64), (4, "<u8"), (4, "<i4"), (4, "<f4"), (1, "<f8")],
    ids=[
        "negative-dim",
        "negative-offset",
        "stored-not-narrower",
        "stored-signed",
        "stored-float",
        "declared-float",
    ],
)
def test_shard_read_refuses_a_forged_header(tmp_path, field, value):
    """A header whose digest matches but whose first array claims a
    negative dimension or offset, or a stored dtype that is not an
    unsigned integer narrower than the declared integer dtype, is
    malformed — not decoded into bytes that run into the next array or
    back into the header, nor cast into values the writer never held."""
    arrays = {"a": np.arange(10, dtype=np.int64), "b": np.arange(10, dtype=np.int64)}

    def edit(entries):
        entries[0][field] = value

    digest = forge_shard(tmp_path / "s.shard", arrays, edit)
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
