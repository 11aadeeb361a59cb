"""Checkpoint round-trip: exact resume parity and restore validation."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.ckpt.checkpoint import _diff_hint, restore_nodes
from repro.ckpt.format import (
    DENSE_SHARD,
    MANIFEST_NAME,
    CheckpointError,
    node_shard_name,
)
from repro.core.cluster import HPSCluster, RoundContext


def build(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=128)


def assert_cluster_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Bit-exact equality of everything training produced."""
    probe = a.generator.batch(10_000, 1024).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)
    eval_batch = a.generator.batch(20_000, 2048)
    assert a.evaluate_auc(eval_batch) == b.evaluate_auc(eval_batch)


def assert_deep_state_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Replacement metadata and SSD layout match, not just values."""
    for na, nb in zip(a.nodes, b.nodes):
        mem_a, mem_b = na.mem_ps.cache.export_state(), nb.mem_ps.cache.export_state()
        assert set(mem_a) == set(mem_b)
        for key in mem_a:
            assert np.array_equal(mem_a[key], mem_b[key]), f"mem {key}"
        ssd_a, ssd_b = na.ssd_ps.store.export_state(), nb.ssd_ps.store.export_state()
        assert set(ssd_a) == set(ssd_b)
        for key in ssd_a:
            assert np.array_equal(ssd_a[key], ssd_b[key]), f"ssd {key}"
        assert (
            na.ssd_ps.compactor.total_compactions
            == nb.ssd_ps.compactor.total_compactions
        )


# ----------------------------------------------------------------------
def test_lockstep_resume_parity(tiny_spec, small_config, tmp_path):
    straight = build(tiny_spec, small_config)
    straight.train(5)

    resumed = build(tiny_spec, small_config)
    resumed.train(2)
    resumed.save_checkpoint(str(tmp_path))
    restored = HPSCluster.restore(str(tmp_path))
    assert restored.rounds_completed == 2
    restored.train(3)

    assert_cluster_parity(straight, restored)
    assert_deep_state_parity(straight, restored)
    for node in restored.nodes:
        node.ssd_ps.check_invariants()


def test_pipelined_resume_parity(tiny_spec, small_config, tmp_path):
    straight = build(tiny_spec, small_config)
    straight.train_pipelined(5)

    resumed = build(tiny_spec, small_config)
    resumed.train_pipelined(2)
    resumed.save_checkpoint(str(tmp_path))
    restored = HPSCluster.restore(str(tmp_path))
    restored.train_pipelined(3)

    assert_cluster_parity(straight, restored)
    assert_deep_state_parity(straight, restored)


def test_restore_is_identity_at_the_boundary(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(3)
    cluster.save_checkpoint(str(tmp_path))
    restored = HPSCluster.restore(str(tmp_path))
    assert restored.rounds_completed == 3
    assert_cluster_parity(cluster, restored)
    assert_deep_state_parity(cluster, restored)
    for node in restored.nodes:
        node.ssd_ps.check_invariants()
        assert node.hdfs.batches_read == 3


def test_save_charges_ckpt_write_and_restore_charges_ckpt_read(
    tiny_spec, small_config, tmp_path
):
    cluster = build(tiny_spec, small_config)
    cluster.train(2)
    stats = cluster.save_checkpoint(str(tmp_path))
    assert stats.seconds > 0 and stats.nbytes > 0
    per_node = [node.ledger.total("ckpt_write") for node in cluster.nodes]
    assert min(per_node) > 0
    # Saves are node-serial: the sum of every node's transfer.
    assert stats.seconds == sum(per_node)

    restored = HPSCluster.restore(str(tmp_path))
    per_node = [node.ledger.total("ckpt_read") for node in restored.nodes]
    assert min(per_node) > 0
    # Restores read every node's chain at once: the slowest node.
    assert restored.restore_stats.seconds == max(per_node)


def _size(directory, name: str) -> int:
    return os.path.getsize(os.path.join(directory, name))


def _chained_saves(tiny_spec, small_config, tmp_path, kind: str):
    """A full snapshot ``s0``, one more round, then a ``kind`` save ``s1``;
    returns the cluster, ``s1``'s stats and every node's ``ckpt_write``
    total just before ``s1``."""
    cluster = build(tiny_spec, small_config)
    cluster.train(2)
    cluster.save_checkpoint(str(tmp_path / "s0"))
    cluster.train(1)
    before = [node.ledger.total("ckpt_write") for node in cluster.nodes]
    stats = cluster.save_checkpoint(str(tmp_path / "s1"), mode=kind)
    assert stats.kind == kind
    return cluster, stats, before


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_save_prices_each_node_as_one_hdfs_transfer(
    kind, tiny_spec, small_config, tmp_path
):
    """One price per HDFS byte: a node's ``ckpt_write`` charge is
    ``transfer_seconds`` of the bytes it shipped — node 0's include the
    dense shard and the manifest — and the save's ``seconds`` is their
    sum in node order."""
    cluster, stats, before = _chained_saves(
        tiny_spec, small_config, tmp_path, kind
    )
    d = tmp_path / "s1"
    shipped = [_size(d, node_shard_name(n.node_id)) for n in cluster.nodes]
    shipped[0] += _size(d, DENSE_SHARD) + _size(d, MANIFEST_NAME)
    prices = [n.hdfs.transfer_seconds(b) for n, b in zip(cluster.nodes, shipped)]
    assert [n.ledger.total("ckpt_write") for n in cluster.nodes] == [
        b + t for b, t in zip(before, prices)
    ]
    assert stats.seconds == sum(prices)
    assert stats.nbytes == sum(shipped)


@pytest.mark.parametrize("ids", [[1], [0, 1]], ids=["partial", "all"])
def test_restore_prices_each_node_as_one_hdfs_transfer(
    ids, tiny_spec, small_config, tmp_path
):
    """A replacement's ``ckpt_read`` is ``transfer_seconds`` of its own
    shard chain plus the bytes every node reads (the newest dense shard
    and each member's manifest); the restore's ``seconds`` is their max."""
    cluster, _, _ = _chained_saves(tiny_spec, small_config, tmp_path, "delta")
    chain = [tmp_path / "s0", tmp_path / "s1"]
    shared = _size(chain[-1], DENSE_SHARD) + sum(
        _size(d, MANIFEST_NAME) for d in chain
    )
    stats = restore_nodes(cluster, str(chain[-1]), ids)
    prices = [
        cluster.nodes[i].hdfs.transfer_seconds(
            sum(_size(d, node_shard_name(i)) for d in chain) + shared
        )
        for i in ids
    ]
    assert [cluster.nodes[i].ledger.total("ckpt_read") for i in ids] == prices
    assert stats.seconds == max(prices)


# ----------------------------------------------------------------------
def test_restore_rejects_config_mismatch(tiny_spec, small_config, tmp_path):
    """A restore rebuilds from the manifest, so a mismatch can only meet
    a live cluster built with another config: ``restore_nodes`` runs the
    same fingerprint check and refuses before any node is replaced."""
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    other = build(tiny_spec, replace(small_config, seed=small_config.seed + 1))
    nodes = list(other.nodes)
    with pytest.raises(CheckpointError, match="configuration mismatch"):
        restore_nodes(other, str(tmp_path), range(other.n_nodes))
    assert other.nodes == nodes and other.rounds_completed == 0
    restored = HPSCluster.restore(str(tmp_path))
    assert restored.rounds_completed == 1


def test_config_mismatch_names_the_differing_fields(
    tiny_spec, small_config, tmp_path
):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    other = build(tiny_spec, replace(small_config, seed=small_config.seed + 1))
    with pytest.raises(CheckpointError, match=r"\(differs in: cluster_config\)"):
        restore_nodes(other, str(tmp_path), range(other.n_nodes))
    other = HPSCluster(
        replace(tiny_spec, embedding_dim=8), small_config, functional_batch_size=256
    )
    with pytest.raises(
        CheckpointError,
        match=r"\(differs in: functional_batch_size, model_spec, sparse_optimizer\)",
    ):
        restore_nodes(other, str(tmp_path), range(other.n_nodes))


def test_diff_hint_compares_through_the_json_round_trip():
    """The saved config went through JSON (tuples became lists): a
    list and the tuple it came from are no difference."""
    saved = {"hidden": [16, 8], "seed": 7}
    assert _diff_hint(saved, {"hidden": (16, 8), "seed": 7}) == "unknown"
    assert _diff_hint(saved, {"hidden": (16, 8), "seed": 8}) == "seed"
    assert _diff_hint(saved, {"hidden": (16,), "lr": 0.1}) == "hidden, lr, seed"


def test_restore_rejects_missing_shard(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    os.remove(tmp_path / node_shard_name(1))
    with pytest.raises(CheckpointError, match="missing"):
        HPSCluster.restore(str(tmp_path))


def test_restore_rejects_corrupt_shard(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    path = tmp_path / DENSE_SHARD
    path.write_bytes(path.read_bytes()[:-16])  # simulated truncation
    with pytest.raises(CheckpointError, match="corrupt"):
        HPSCluster.restore(str(tmp_path))


def test_restore_rejects_uncommitted_directory(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    os.remove(tmp_path / MANIFEST_NAME)  # shards present, commit record gone
    with pytest.raises(CheckpointError, match="no committed checkpoint"):
        HPSCluster.restore(str(tmp_path))


def test_save_refuses_mid_round(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    ctx = RoundContext(round_index=0)
    cluster.stage_read(ctx)
    cluster.stage_prepare(ctx)
    cluster.stage_load(ctx)
    with pytest.raises(CheckpointError, match="round boundary"):
        cluster.save_checkpoint(str(tmp_path))
    cluster.stage_train(ctx)  # completes the round; now quiescent
    cluster.save_checkpoint(str(tmp_path))


def test_save_overwrites_previous_checkpoint(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    restored = HPSCluster.restore(str(tmp_path))
    assert restored.rounds_completed == 2
    assert_cluster_parity(cluster, restored)


# ----------------------------------------------------------------------
def test_trainer_checkpoint_cadence(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
    cluster.train(5)
    assert [c.rounds_completed for c in stage.history] == [2, 4]
    assert sum(c.seconds for c in stage.history) > 0
    assert sorted(os.listdir(tmp_path)) == ["round_000002", "round_000004"]
    restored = HPSCluster.restore(str(tmp_path / "round_000004"))
    restored.train(1)
    assert_cluster_parity(cluster, restored)


def test_trainer_delta_checkpoint_mode(tiny_spec, small_config, tmp_path):
    """Cadence snapshots chain: first full, the rest deltas — and the
    newest chain member restores bit-identically."""
    cluster = build(tiny_spec, small_config)
    stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
    cluster.train(6)
    assert [c.kind for c in stage.history] == ["full", "delta", "delta"]
    restored = HPSCluster.restore(str(tmp_path / "round_000006"))
    assert_cluster_parity(cluster, restored)
    assert_deep_state_parity(cluster, restored)
    cluster.train(1)
    restored.train(1)
    assert_cluster_parity(cluster, restored)


def test_trainer_validates_checkpoint_mode(tiny_spec, small_config, tmp_path):
    """The stage refuses a bad cadence, naming the argument, and a second
    snapshot stage at registration: nothing registered, no directory
    created."""
    cluster = build(tiny_spec, small_config)
    before = cluster.stage_functions()
    target = str(tmp_path / "snaps")
    for kwargs, match in (
        ({"every": 0}, "every must be >= 1"),
        ({"full_every": 0}, "full_every must be >= 1"),
        ({"keep_last": 0}, "keep_last must be >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            cluster.enable_snapshot_stage(target, **kwargs)
        assert cluster.stage_functions() == before
        assert not os.path.exists(target)
    cluster.enable_snapshot_stage(str(tmp_path / "first"))
    before = cluster.stage_functions()
    with pytest.raises(ValueError, match="already registered"):
        cluster.enable_snapshot_stage(target)
    assert cluster.stage_functions() == before
    assert not os.path.exists(target)
