"""Execution-mode parity over the round plan.

Trained parameters — sparse and dense — and every simulated-seconds
statistic must be bit-identical between lockstep and pipelined
execution, and across a checkpoint/restore boundary, over enough rounds
that caches warm, the SSD tier engages, and compaction fires.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.cluster import HPSCluster

N_ROUNDS = 20


def _build(spec, config):
    return HPSCluster(spec, config, functional_batch_size=192)


def _probe(cluster):
    return cluster.generator.batch(10_000, 1024).unique_keys()


def _assert_param_parity(a, b):
    probe = _probe(a)
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)


def _assert_stats_parity(stats_a, stats_b):
    assert len(stats_a) == len(stats_b)
    for sa, sb in zip(stats_a, stats_b):
        for f in dataclasses.fields(sa):
            va, vb = getattr(sa, f.name), getattr(sb, f.name)
            assert va == vb, f"BatchStats.{f.name}: {va} != {vb}"


@pytest.fixture
def tiny_pressured(small_config):
    # Small enough MEM tier that the SSD path engages.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


class TestPlannedParity:
    def test_pipelined_vs_lockstep(self, tiny_spec, tiny_pressured):
        a = _build(tiny_spec, tiny_pressured)
        b = _build(tiny_spec, tiny_pressured)
        stats_a = a.train(N_ROUNDS)
        # The workload must actually exercise the SSD tier for the parity
        # claim to mean anything.
        assert any(s.ssd_io_seconds > 0 for s in stats_a)
        run = b.train_pipelined(N_ROUNDS)
        _assert_stats_parity(stats_a, run.stats)
        _assert_param_parity(a, b)
        # Pipelining still overlaps: strictly below the serial makespan.
        assert run.makespan < run.serial_makespan

    def test_checkpoint_restore_parity(self, tiny_spec, small_config, tmp_path):
        """train(k)+save+restore+train(m) stays exact."""
        straight = _build(tiny_spec, small_config)
        straight.train(5)

        resumed = _build(tiny_spec, small_config)
        resumed.train(3)
        resumed.save_checkpoint(str(tmp_path / "ckpt"))
        restored = HPSCluster.restore(str(tmp_path / "ckpt"))
        restored.train(2)
        _assert_param_parity(straight, restored)
