"""What a snapshot costs is what it writes, and a commit is durable.

The simulated snapshot and restore seconds price ``CheckpointStats.nbytes``,
so those bytes must be the bytes on disk: a save's are every file of the
committed directory, a restore's are the shards and manifests of the
chain it read.  A smaller price can then only come from bytes that no
longer exist.  The commit itself is made durable — the directory is
fsynced after the manifest's rename — before the snapshot stage's prune
deletes anything older.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

from repro.ckpt import checkpoint as ckpt
from repro.ckpt import format as fmt
from repro.core.cluster import HPSCluster


@pytest.fixture
def pressured(small_config):
    # Small enough a MEM tier that evictions reach the SSD store: every
    # tier's shard arrays carry payload.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


def build(tiny_spec, config):
    return HPSCluster(tiny_spec, config, functional_batch_size=512)


def on_disk(directory) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def member_bytes(directory, names) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_saved_nbytes_are_the_committed_directory(tiny_spec, pressured, tmp_path, kind):
    cluster = build(tiny_spec, pressured)
    cluster.train(6)
    cluster.save_checkpoint(str(tmp_path / "base"), mode="full")
    cluster.train(2)
    stats = cluster.save_checkpoint(str(tmp_path / "next"), mode=kind)
    assert stats.kind == kind
    assert stats.nbytes == on_disk(tmp_path / "next")


def test_restore_nbytes_are_the_chain_it_read(tiny_spec, pressured, tmp_path):
    """A full restore reads every member's node shards, the newest
    member's dense shard and every manifest; a partial one the same,
    for its own node only."""
    cluster = build(tiny_spec, pressured)
    stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
    cluster.train(6)
    assert [s.kind for s in stage.history] == ["full", "delta", "delta"]
    newest = str(tmp_path / "round_000006")
    chain = [d for d, _ in fmt.resolve_chain(newest)]

    def read(node_ids) -> int:
        shards = [fmt.node_shard_name(i) for i in node_ids]
        return (
            sum(member_bytes(d, [*shards, fmt.MANIFEST_NAME]) for d in chain)
            + member_bytes(newest, [fmt.DENSE_SHARD])
        )

    restored = HPSCluster.restore(newest)
    assert restored.restore_stats.nbytes == read(range(cluster.n_nodes))
    partial = ckpt.restore_nodes(cluster, newest, [1])
    assert partial.kind == "partial"
    assert partial.nbytes == read([1])


def test_a_v8_chain_is_refused(tiny_spec, pressured, tmp_path):
    """A chain a format-v8 build wrote (its manifests say so; its shards
    store every integer array at 8 bytes) is refused with CheckpointError
    naming both versions, before any shard is read."""
    cluster = build(tiny_spec, pressured)
    stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
    cluster.train(4)
    assert [s.kind for s in stage.history] == ["full", "delta"]
    for member in ("round_000002", "round_000004"):
        path = tmp_path / member / fmt.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 8
        path.write_text(json.dumps(manifest))
    with pytest.raises(fmt.CheckpointError, match="v8 is not supported .*reads v9"):
        HPSCluster.restore(str(tmp_path / "round_000004"))


def test_commit_is_fsynced_before_the_prune(tiny_spec, pressured, tmp_path, monkeypatch):
    """The manifest's rename, then one fsync of the snapshot directory,
    then the prune of the older snapshot — so a power loss can never
    undo a commit after the only other copy was deleted."""
    cluster = build(tiny_spec, pressured)
    cluster.enable_snapshot_stage(str(tmp_path), every=1, full_every=1, keep_last=1)
    cluster.train(1)
    events: list[tuple[str, str]] = []
    replace, fsync, rmtree = os.replace, os.fsync, shutil.rmtree

    def on_replace(src, dst):
        events.append(("rename", os.path.basename(dst)))
        return replace(src, dst)

    def on_fsync(fd):
        if os.path.samestat(os.fstat(fd), os.stat(tmp_path / "round_000002")):
            events.append(("fsync", "round_000002"))
        return fsync(fd)

    def on_rmtree(path, *args, **kwargs):
        events.append(("rmtree", os.path.basename(path)))
        return rmtree(path, *args, **kwargs)

    monkeypatch.setattr(os, "replace", on_replace)
    monkeypatch.setattr(os, "fsync", on_fsync)
    monkeypatch.setattr(shutil, "rmtree", on_rmtree)
    cluster.train(1)
    assert events[-3:] == [
        ("rename", fmt.MANIFEST_NAME),
        ("fsync", "round_000002"),
        ("rmtree", "round_000001"),
    ]
    assert events.count(("fsync", "round_000002")) == 1
    assert sorted(os.listdir(tmp_path)) == ["round_000002"]
