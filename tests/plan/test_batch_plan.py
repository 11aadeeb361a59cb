"""Unit tests for the per-round key plan builder."""

import numpy as np
import pytest

from repro.data.generator import CTRDataGenerator
from repro.hbm.partition import ModuloPartitioner
from repro.plan import build_round_plan, group_indices
from repro.utils.keys import as_keys

N_NODES = 2
N_GPUS = 2
MB_ROUNDS = 2

_NODE_SALT = 0x6E6F6465
_GPU_SALT = 0x67707573


@pytest.fixture
def partitioners():
    return (
        ModuloPartitioner(N_NODES, salt=_NODE_SALT),
        ModuloPartitioner(N_GPUS, salt=_GPU_SALT),
    )


@pytest.fixture
def plan(tiny_spec, partitioners):
    gen = CTRDataGenerator(tiny_spec, seed=3)
    batches = [gen.batch(i, 128) for i in range(N_NODES)]
    node_p, gpu_p = partitioners
    return (
        batches,
        build_round_plan(
            batches,
            node_partitioner=node_p,
            gpu_partitioner=gpu_p,
            n_gpus=N_GPUS,
            mb_rounds=MB_ROUNDS,
        ),
    )


class TestGroupIndices:
    def test_matches_flatnonzero(self, rng):
        parts = rng.integers(0, 5, 200)
        got = group_indices(parts, 5)
        for b in range(5):
            assert np.array_equal(got[b], np.flatnonzero(parts == b))

    def test_empty(self):
        got = group_indices(np.zeros(0, dtype=np.int64), 3)
        assert len(got) == 3 and all(g.size == 0 for g in got)


class TestNodePlan:
    def test_keys_are_batch_working_set(self, plan):
        batches, rp = plan
        for b, npn in zip(batches, rp.nodes):
            assert np.array_equal(npn.keys, b.unique_keys())

    def test_node_parts_partition_by_owner(self, plan, partitioners):
        _, rp = plan
        node_p, _ = partitioners
        for npn in rp.nodes:
            owners = node_p.part_of(npn.keys)
            together = np.concatenate([p for p in npn.node_parts])
            assert np.array_equal(np.sort(together), np.arange(npn.keys.size))
            for peer, idx in enumerate(npn.node_parts):
                assert np.array_equal(idx, np.flatnonzero(owners == peer))

    def test_gpu_counts_partition_by_gpu(self, plan, partitioners):
        _, rp = plan
        _, gpu_p = partitioners
        for npn in rp.nodes:
            assert np.array_equal(npn.gpu_counts, gpu_p.counts(npn.keys))
            assert npn.gpu_counts.shape == (N_GPUS,)

    def test_minibatch_plans_align_with_shards(self, plan):
        _, rp = plan
        for npn in rp.nodes:
            assert np.array_equal(rp.keys[npn.codes], npn.keys)
            assert len(npn.shards) == len(npn.minibatches) == N_GPUS * MB_ROUNDS
            for shard, mbp in zip(npn.shards, npn.minibatches):
                assert np.array_equal(mbp.keys, shard.unique_keys())
                # codes gather the mini-batch keys from the round universe
                assert np.array_equal(rp.keys[mbp.codes], mbp.keys)
                assert int(mbp.gpu_counts.sum()) == mbp.keys.size

    def test_sync_idx_points_into_round_union(self, plan):
        _, rp = plan
        for npn in rp.nodes:
            for m in range(MB_ROUNDS):
                group = npn.minibatches[m * N_GPUS : (m + 1) * N_GPUS]
                union = np.unique(
                    np.concatenate([p.keys for p in group])
                    if any(p.keys.size for p in group)
                    else as_keys([])
                )
                for mbp in group:
                    assert mbp.sync_size == union.size
                    assert np.array_equal(union[mbp.sync_idx], mbp.keys)


class TestSyncPlan:
    def test_global_keys_are_union_of_node_unions(self, plan):
        _, rp = plan
        for m, sp in enumerate(rp.sync):
            per_node = [n.keys for n in sp.nodes if n.keys.size]
            union = np.unique(np.concatenate(per_node))
            assert np.array_equal(sp.keys, union)

    def test_resident_missing_split(self, plan, partitioners):
        """A node is charged for the update's keys it staged, per GPU;
        the rest are staged elsewhere."""
        _, rp = plan
        _, gpu_p = partitioners
        for sp in rp.sync:
            assert np.array_equal(rp.keys[sp.codes], sp.keys)
            for npn, nsp in zip(rp.nodes, sp.nodes):
                in_working = np.isin(sp.keys, npn.keys)
                assert np.array_equal(
                    nsp.resident_gpu_counts, gpu_p.counts(sp.keys[in_working])
                )

    def test_missing_own_is_owner_filtered(self, plan, partitioners):
        """A node's resolve set is every key of the round it owns — so
        it holds each sync round's keys the node owns but did not stage,
        and the owner writes their update back."""
        _, rp = plan
        node_p, _ = partitioners
        for i, (npn, pf) in enumerate(zip(rp.nodes, rp.prefetch)):
            owned = node_p.part_of(rp.keys) == i
            assert np.array_equal(pf.keys, rp.keys[owned])
            assert np.array_equal(pf.codes, np.flatnonzero(owned))
            for sp in rp.sync:
                missing = ~np.isin(sp.keys, npn.keys)
                missing_own = sp.keys[missing & (node_p.part_of(sp.keys) == i)]
                assert np.isin(missing_own, pf.keys).all()


class TestTopologyMismatch:
    """Partitioners that disagree with the topology are refused up front:
    a key hashed to a bucket no node / GPU owns used to drop out of every
    partition without an error."""

    def _build(self, batches, *, node_parts, gpu_parts, n_gpus=N_GPUS):
        return build_round_plan(
            batches,
            node_partitioner=ModuloPartitioner(node_parts, salt=_NODE_SALT),
            gpu_partitioner=ModuloPartitioner(gpu_parts, salt=_GPU_SALT),
            n_gpus=n_gpus,
            mb_rounds=MB_ROUNDS,
        )

    def test_node_partitioner_wider_than_the_cluster(self, plan):
        batches, _ = plan
        with pytest.raises(ValueError, match="node_partitioner has 4 buckets"):
            self._build(batches, node_parts=4, gpu_parts=N_GPUS)

    def test_gpu_partitioner_wider_than_the_node(self, plan):
        batches, _ = plan
        with pytest.raises(ValueError, match="gpu_partitioner has 4 buckets"):
            self._build(batches, node_parts=N_NODES, gpu_parts=4)

    def test_no_batches(self):
        with pytest.raises(ValueError, match="at least one"):
            self._build([], node_parts=N_NODES, gpu_parts=N_GPUS)


class TestRecordPrepare:
    def test_plan_records_resolved_state(self, tiny_spec, small_config):
        from repro.core.cluster import HPSCluster, RoundContext

        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        ctx = RoundContext(round_index=0)
        cluster.stage_read(ctx)
        assert ctx.plan is not None
        for pf in ctx.plan.prefetch:
            assert pf.rows is None  # not resolved yet
        cluster.stage_prepare(ctx)
        for node, npn, pf in zip(
            cluster.nodes, ctx.plan.nodes, ctx.plan.prefetch
        ):
            assert pf.rows.size == pf.hit.size == pf.ssd_found.size
            # the resolved rows hold exactly the pinned MEM-touch union,
            # the local working keys among them
            cache = node.mem_ps.cache
            assert np.array_equal(cache._keys[pf.rows], pf.keys)
            assert np.array_equal(
                pf.keys[pf.local_pos], npn.keys[npn.local_idx]
            )
            assert bool(np.all(cache._pinned[pf.rows]))
        cluster.stage_load(ctx)
        cluster.stage_train(ctx)  # leave the cluster quiescent


class TestAdmissionThreading:
    """The cache's admission outcome is threaded through plan + stats."""

    def test_plan_records_admission(self, tiny_spec, small_config):
        from repro.core.cluster import HPSCluster, RoundContext
        from repro.plan import AdmissionRecord

        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        ctx = RoundContext(round_index=0)
        cluster.stage_read(ctx)
        cluster.stage_prepare(ctx)
        for pf in ctx.plan.prefetch:
            assert isinstance(pf.admission, AdmissionRecord)
            assert pf.admission.n_runs >= 1
        cluster.stage_load(ctx)
        cluster.stage_train(ctx)

    def test_batch_stats_carry_admission_counters(
        self, tiny_spec, small_config
    ):
        from repro.core.cluster import HPSCluster

        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        stats = cluster.train(2)
        assert all(s.cache_admission_runs > 0 for s in stats)
