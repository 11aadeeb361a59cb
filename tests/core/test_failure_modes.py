"""Failure-injection and boundary tests across the stack.

These pin down what happens when capacity assumptions are violated —
the errors must be loud and specific, never silent corruption.
"""

import numpy as np
import pytest

from priced import hbm_ps
from repro.config import ClusterConfig
from repro.core.cluster import HPSCluster
from repro.errors import TierStateError
from repro.hardware.ledger import CostLedger
from repro.mem.cache import CombinedCache
from repro.nn.optim import SparseSGD


class TestCapacityViolations:
    def test_hbm_overflow_is_loud(self, tiny_spec):
        """A working set beyond GPU capacity must raise, not wrap."""
        cfg = ClusterConfig(
            n_nodes=1,
            gpus_per_node=2,
            minibatches_per_gpu=1,
            mem_capacity_params=50_000,
            hbm_capacity_params=10,  # absurdly small
            ssd_file_capacity=64,
            seed=0,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=512)
        with pytest.raises(RuntimeError, match="capacity"):
            cluster.train_round()

    def test_pinned_overflow_is_loud(self, tiny_spec):
        """A round's MEM working set beyond the LRU tier is refused at
        the first resolve — typed, naming the sizes and the knobs, with
        the paper's explanation and the cache untouched (it used to end
        in a bare ``RuntimeError`` from the miss insert, or, when LRU
        hits + LFU promotions alone overflowed, in stale rows)."""
        cfg = ClusterConfig(
            n_nodes=1,
            gpus_per_node=2,
            minibatches_per_gpu=1,
            mem_capacity_params=20,  # smaller than any working set
            hbm_capacity_params=50_000,
            ssd_file_capacity=64,
            seed=0,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=512)
        with pytest.raises(TierStateError, match="pinned") as err:
            cluster.train_round()
        cache = cluster.nodes[0].mem_ps.cache
        for part in ("10-row LRU tier", "mem_capacity_params", "cache_lru_fraction"):
            assert part in str(err.value)
        assert len(cache) == 0 and cache.stats.accesses == 0

    def test_hash_table_never_silently_drops(self, round_plan):
        """An over-capacity staging into the HBM-PS is refused before it
        touches the staged working set."""
        ps = hbm_ps(2, 3, SparseSGD(1, lr=1.0), CostLedger())

        def plan_of(keys):
            return round_plan(
                [[keys, []]], n_gpus=2, gpu_partitioner=ps.params.partitioner
            ).nodes[0]

        values = np.arange(4, dtype=np.float32)[:, None]
        ps.load_working_set(values, plan_of(range(4)))
        with pytest.raises(RuntimeError, match="capacity"):
            ps.load_working_set(
                np.zeros((20, 1), np.float32), plan_of(range(20))
            )
        # The original contents are intact after the failed load.
        keys, kept = ps.dump()
        assert keys.tolist() == [0, 1, 2, 3]
        assert np.array_equal(kept, values)


class TestDataBoundaries:
    def test_minibatch_count_exceeding_examples(self, tiny_spec):
        """More (GPU x minibatch) slots than examples: empty shards must
        be skipped cleanly."""
        cfg = ClusterConfig(
            n_nodes=1,
            gpus_per_node=4,
            minibatches_per_gpu=4,
            mem_capacity_params=4_000,
            hbm_capacity_params=50_000,
            ssd_file_capacity=64,
            seed=0,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=8)
        stats = cluster.train_round()
        assert stats.n_examples == 8

    def test_single_gpu_single_node(self, tiny_spec):
        cfg = ClusterConfig(
            n_nodes=1,
            gpus_per_node=1,
            minibatches_per_gpu=1,
            mem_capacity_params=4_000,
            hbm_capacity_params=50_000,
            ssd_file_capacity=64,
            seed=0,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=64)
        stats = cluster.train_round()
        assert np.isfinite(stats.mean_loss)

    def test_repeated_rounds_keep_invariants(self, tiny_spec):
        cfg = ClusterConfig(
            n_nodes=2,
            gpus_per_node=2,
            minibatches_per_gpu=2,
            mem_capacity_params=2_000,
            hbm_capacity_params=50_000,
            ssd_file_capacity=64,
            cache_lru_fraction=0.6,
            seed=1,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=256)
        cluster.train(6)
        for node in cluster.nodes:
            node.ssd_ps.check_invariants()
            # No pins leak across batches.
            assert node.mem_ps.cache.pinned_count() == 0


class TestCacheEdges:
    def test_minimum_viable_cache(self):
        c = CombinedCache(2, lru_fraction=0.5, value_dim=1)
        flushed = []
        for k in (1, 2, 3):
            fk, _, _ = c.put_batch(
                np.array([k], dtype=np.uint64), np.zeros((1, 1), np.float32)
            )
            flushed += fk.tolist()
        assert len(c) == 2 and flushed == [1]
