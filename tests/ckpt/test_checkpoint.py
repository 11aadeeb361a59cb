"""Checkpoint round-trip: exact resume parity and restore validation."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ckpt.format import (
    DENSE_SHARD,
    MANIFEST_NAME,
    CheckpointError,
    node_shard_name,
)
from repro.config import ClusterConfig
from repro.core.cluster import HPSCluster, RoundContext


def build(tiny_spec, small_config, **kwargs):
    return HPSCluster(
        tiny_spec, small_config, functional_batch_size=128, **kwargs
    )


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
        mem_a, mem_b = na.mem_ps.export_state(), nb.mem_ps.export_state()
        assert set(mem_a) == set(mem_b)
        for key in mem_a:
            assert np.array_equal(mem_a[key], mem_b[key]), f"mem {key}"
        ssd_a, ssd_b = na.ssd_ps.export_state(), nb.ssd_ps.export_state()
        assert set(ssd_a) == set(ssd_b)
        for key in ssd_a:
            assert np.array_equal(ssd_a[key], ssd_b[key]), f"ssd {key}"


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


def test_disk_backed_ssd_round_trip(tiny_spec, small_config, tmp_path):
    src_dir = tmp_path / "ssd_src"
    dst_dir = tmp_path / "ssd_dst"
    ckpt = tmp_path / "ckpt"
    cluster = build(tiny_spec, small_config, ssd_directory=str(src_dir))
    cluster.train(3)
    # Shutdown-style flush guarantees the SSD tier holds payload files.
    for node in cluster.nodes:
        node.mem_ps.flush_to_ssd()
    assert cluster.nodes[0].ssd_ps.store.n_files > 0
    cluster.save_checkpoint(str(ckpt))
    restored = HPSCluster.restore(str(ckpt), ssd_directory=str(dst_dir))
    assert_cluster_parity(cluster, restored)
    # Payloads were re-materialized under the new directory.
    assert any(f.endswith(".npy") for f in os.listdir(dst_dir / "node0"))
    for node in restored.nodes:
        node.ssd_ps.check_invariants()


def test_save_charges_ckpt_write_and_restore_charges_ckpt_read(
    tiny_spec, small_config, tmp_path
):
    cluster = build(tiny_spec, small_config)
    cluster.train(2)
    stats = cluster.save_checkpoint(str(tmp_path))
    assert stats.op == "save"
    assert stats.seconds > 0 and stats.nbytes > 0
    assert len(stats.per_node_seconds) == cluster.n_nodes
    # Saves price as a serialize/transfer flow shop: the makespan beats
    # the serial sum (overlap) but can't beat the slowest single shard.
    assert stats.serialize_seconds > 0 and stats.transfer_seconds > 0
    assert max(stats.per_node_seconds) <= stats.seconds
    assert stats.seconds < stats.serialize_seconds + stats.transfer_seconds
    assert stats.seconds <= sum(stats.per_node_seconds)
    for node in cluster.nodes:
        assert node.ledger.total("ckpt_write") > 0

    restored = HPSCluster.restore(str(tmp_path))
    assert restored.restore_stats.op == "restore"
    assert restored.restore_stats.seconds > 0
    # Restores keep the parallel-shard model — no serialize component.
    assert restored.restore_stats.serialize_seconds == 0.0
    for node in restored.nodes:
        assert node.ledger.total("ckpt_read") > 0


def test_snapshot_cost_is_flow_shop_makespan(tiny_spec, small_config, tmp_path):
    """``seconds`` follows the serialize/transfer overlap recurrence.

    Per-shard components are recoverable from ``per_node_seconds``
    (``s_i + t_i`` with both rates known), so the flow-shop makespan —
    ``s_done += s_i; t_done = max(t_done, s_done) + t_i`` in node order —
    can be recomputed independently and compared against the stats.
    """
    cluster = build(tiny_spec, small_config)
    cluster.train(2)
    stats = cluster.save_checkpoint(str(tmp_path))
    spec = cluster.nodes[0].hdfs.spec
    rate = 1.0 / spec.bandwidth + 1.0 / spec.serialize_bandwidth
    s_done = t_done = ser_sum = xfer_sum = 0.0
    for per in stats.per_node_seconds:
        total_bytes = (per - spec.latency_s) / rate
        s = total_bytes / spec.serialize_bandwidth
        t = spec.latency_s + total_bytes / spec.bandwidth
        s_done += s
        t_done = max(t_done, s_done) + t
        ser_sum += s
        xfer_sum += t
    assert stats.seconds == pytest.approx(t_done, rel=1e-9)
    assert stats.serialize_seconds == pytest.approx(ser_sum, rel=1e-9)
    assert stats.transfer_seconds == pytest.approx(xfer_sum, rel=1e-9)


# ----------------------------------------------------------------------
def test_restore_rejects_config_mismatch(tiny_spec, small_config, tmp_path):
    cluster = build(tiny_spec, small_config)
    cluster.train(1)
    cluster.save_checkpoint(str(tmp_path))
    other = ClusterConfig(
        n_nodes=small_config.n_nodes,
        gpus_per_node=small_config.gpus_per_node,
        minibatches_per_gpu=small_config.minibatches_per_gpu,
        mem_capacity_params=small_config.mem_capacity_params,
        hbm_capacity_params=small_config.hbm_capacity_params,
        ssd_file_capacity=small_config.ssd_file_capacity,
        seed=small_config.seed + 1,
    )
    with pytest.raises(CheckpointError, match="configuration mismatch"):
        HPSCluster.restore(str(tmp_path), other)
    # The saved config restores fine when passed explicitly.
    restored = HPSCluster.restore(str(tmp_path), small_config)
    assert restored.rounds_completed == 1


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
    """The stage refuses a bad cadence at registration, naming the
    argument: nothing registered, no directory created."""
    cluster = build(tiny_spec, small_config)
    before = cluster.stage_specs()
    target = str(tmp_path / "snaps")
    for kwargs, match in (
        ({"every": 0}, "every must be >= 1"),
        ({"full_every": 0}, "full_every must be >= 1"),
        ({"keep_last": 0}, "keep_last must be >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            cluster.enable_snapshot_stage(target, **kwargs)
        assert cluster.stage_specs() == before
        assert not os.path.exists(target)
