"""Integration tests for the full hierarchical PS cluster (Algorithm 1)."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.cluster import HPSCluster
from repro.core.trainer import ReferenceTrainer, Trainer
from repro.plan import RoundPlan


@pytest.fixture
def cluster(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=256)


class TestTrainRound:
    def test_round_produces_stats(self, cluster):
        stats = cluster.train_round()
        assert stats.n_examples == 256 * 2  # 2 nodes
        assert stats.read_seconds > 0
        assert stats.mean_loss > 0
        assert stats.n_working_params > 0

    def test_rounds_advance(self, cluster):
        cluster.train(3)
        assert cluster.rounds_completed == 3
        assert len(cluster.history) == 3

    def test_loss_decreases_over_training(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=512)
        stats = cluster.train(8)
        first = np.mean([s.mean_loss for s in stats[:2]])
        last = np.mean([s.mean_loss for s in stats[-2:]])
        assert last < first

    def test_cache_warms_up(self, cluster):
        # Round 0 is not exactly zero in multi-node runs: a node's remote
        # pulls warm the owner's cache before the owner's own prepare.
        stats = cluster.train(4)
        assert stats[0].cache_hit_rate < stats[-1].cache_hit_rate
        assert stats[-1].cache_hit_rate > 0.3

    def test_stage_times_positive(self, cluster):
        s = cluster.train_round()
        assert s.pull_push_seconds >= 0
        assert s.train_seconds > 0
        assert s.bottleneck_seconds == max(s.stage_times)

    def test_auc_improves_over_random(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=512)
        cluster.train(8)
        eval_batch = cluster.generator.batch(500, 2048)
        assert cluster.evaluate_auc(eval_batch) > 0.55


class TestLosslessness:
    """Paper Fig. 3(b): hierarchical training is lossless — per-mini-batch
    synchronization makes it mathematically identical to the single-store
    reference up to float reduction order."""

    def test_losses_match_reference_exactly(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=256)
        for _ in range(4):
            s = cluster.train_round()
            l = ref.train_round()
            assert s.mean_loss == pytest.approx(l, rel=1e-6)

    def test_embeddings_match_reference(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=256)
        for _ in range(3):
            cluster.train_round()
            ref.train_round()
        probe = cluster.generator.batch(77, 128).unique_keys()
        a = cluster.lookup_embeddings(probe)
        b = ref.embedding_of(probe)
        assert np.allclose(a, b, atol=1e-5)

    def test_auc_parity_within_paper_tolerance(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=256)
        for _ in range(4):
            cluster.train_round()
            ref.train_round()
        eval_batch = cluster.generator.batch(900, 2048)
        a = cluster.evaluate_auc(eval_batch)
        b = ref.evaluate_auc(eval_batch)
        assert abs(a / b - 1.0) < 1e-3  # paper: within 0.1%

    @pytest.mark.parametrize("pipelined", [False, True], ids=["train", "pipelined"])
    @pytest.mark.parametrize(
        "prefetch", [{}, {"prefetch": True}], ids=["no-prefetch", "prefetch"]
    )
    def test_every_production_configuration_matches_reference(
        self, tiny_spec, small_config, prefetch, pipelined
    ):
        """The independent oracle over every way the cluster can run:
        20 rounds under MEM pressure (SSD engaged, compaction firing),
        with and without prefetch, lockstep and pipelined."""
        config = dataclasses.replace(
            small_config,
            mem_capacity_params=600,
            ssd_file_capacity=64,
            compaction_threshold=1.1,
            compaction_stale_fraction=0.3,
            **prefetch,
        )
        cluster = HPSCluster(tiny_spec, config, functional_batch_size=128)
        ref = ReferenceTrainer(tiny_spec, config, functional_batch_size=128)
        if pipelined:
            stats = cluster.train_pipelined(20).stats
        else:
            stats = cluster.train(20)
        assert any(s.ssd_io_seconds > 0 for s in stats)
        assert sum(s.compactions for s in stats) > 0
        for s in stats:
            assert s.mean_loss == pytest.approx(ref.train_round(), rel=1e-6)
        probe = cluster.generator.batch(77, 512).unique_keys()
        assert np.allclose(
            cluster.lookup_embeddings(probe), ref.embedding_of(probe), atol=1e-5
        )

    def test_dense_replicas_stay_identical(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        cluster.train(3)
        states = [n.model.dense_state() for n in cluster.nodes]
        for s in states[1:]:
            for a, b in zip(states[0], s):
                assert np.array_equal(a, b)


def _arrays_under(obj, seen):
    """Every ndarray reachable from ``obj`` through repro objects and
    plain containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays_under(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays_under(v, seen)
    elif type(obj).__module__.startswith("repro."):
        names = list(getattr(obj, "__dict__", ()))
        for klass in type(obj).__mro__:
            names += list(getattr(klass, "__slots__", ()))
        for name in names:
            yield from _arrays_under(getattr(obj, name, None), seen)


class TestHBMStagingIsDense:
    def test_no_hash_table_slab_is_ever_allocated(
        self, tiny_spec, small_config, tmp_path
    ):
        """The HBM tier stages densely: constructing a cluster, training
        and restoring allocate no per-GPU ``HashTable`` slab (sixteen
        200k-key tables cost the benchmark's ``dense_heavy`` restore
        2-3 s and most of its peak RSS when they existed)."""
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        cluster.train(1)
        cluster.save_checkpoint(str(tmp_path / "ckpt"))
        restored = HPSCluster.restore(str(tmp_path / "ckpt"))
        restored.train(1)
        # A per-GPU table sized for the capacity would have at least
        # ``hbm_capacity_params`` rows; the staged round has far fewer.
        cap = small_config.hbm_capacity_params
        for c in (cluster, restored):
            for node in c.nodes:
                hbm = node.hbm_ps
                assert not hasattr(hbm, "grads")
                assert not hasattr(hbm.params, "tables")
                arrays = list(_arrays_under(hbm, set()))
                assert arrays  # the walk does see the staged values
                assert all(a.ndim == 0 or a.shape[0] < cap for a in arrays)


def _round_plans_alive() -> int:
    return sum(isinstance(o, RoundPlan) for o in gc.get_objects())


class TestPipelinedMemory:
    def test_a_finished_round_drops_its_payload(self, tiny_spec, small_config):
        """Execution is batch-major, so once a round's last stage has run
        only its stats are kept: with ``gc`` off, one round plan is alive
        at the end of each round and at most one after the segment."""
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        alive: list[int] = []
        cluster.register_stage(
            "count", lambda ctx: alive.append(_round_plans_alive()) or 0.0,
            after="train",
        )
        gc.collect()
        gc.disable()
        try:
            run = cluster.train_pipelined(10)
            after = _round_plans_alive()
        finally:
            gc.enable()
        assert alive == [1] * 10
        assert after <= 1
        assert [s.round_index for s in run.stats] == list(range(10))


class TestFreedByRefcount:
    """The stage registry lives on the cluster and holds it weakly, and
    the MEM tiers hold no peer list, so a dropped cluster — nodes,
    slabs, arenas — is freed the moment its last reference goes, not at
    the next full garbage collection."""

    @staticmethod
    def _refs(cluster) -> list:
        return [weakref.ref(cluster)] + [
            weakref.ref(node.mem_ps) for node in cluster.nodes
        ]

    def test_trained_and_restored_clusters(self, tiny_spec, small_config, tmp_path):
        config = dataclasses.replace(small_config, mem_capacity_params=1_400)
        gc.collect()
        gc.disable()
        try:
            cluster = HPSCluster(tiny_spec, config, functional_batch_size=512)
            cluster.enable_snapshot_stage(str(tmp_path), every=2)
            cluster.train_pipelined(4)
            refs = self._refs(cluster)
            del cluster
            assert [ref() for ref in refs] == [None] * 3
            refs = self._refs(HPSCluster.restore(str(tmp_path / "round_000004")))
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()


class TestPredict:
    def test_predict_is_byte_equal_to_the_searchsorted_path(
        self, tiny_spec, small_config
    ):
        """Twin clusters whose MEM tier spills to SSD: ``predict`` (one
        dedup, its codes handed to the forward) on one is byte-equal to
        looking up ``batch.unique_keys()`` and letting the forward find
        every key on the other, and both end with the same SSD read
        charges and extent-cache order."""
        config = dataclasses.replace(small_config, mem_capacity_params=1_400)
        served, parent = (
            HPSCluster(tiny_spec, config, functional_batch_size=512) for _ in range(2)
        )
        for cluster in (served, parent):
            cluster.train(8)
        reads_before = [n.ssd_ps.store.ledger.count("ssd_read") for n in served.nodes]
        for i in range(3):
            batch = served.generator.batch(20_000 + i, 1024)
            keys = batch.unique_keys()
            emb = parent.lookup_embeddings(keys)
            expect = parent.nodes[0].model.predict_proba(batch, keys, emb)
            got = served.predict(batch)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
        for mine, theirs, before in zip(served.nodes, parent.nodes, reads_before):
            a, b = mine.ssd_ps.store, theirs.ssd_ps.store
            assert a.ledger.count("ssd_read") > before  # serving reached SSD
            assert a.ledger.total("ssd_read") == b.ledger.total("ssd_read")
            assert a.ledger.count("ssd_read") == b.ledger.count("ssd_read")
            assert a.extent_cache.resident_ids() == b.extent_cache.resident_ids()


class TestMultiNodeConsistency:
    def test_node_counts_agree(self, tiny_spec):
        """1-node and 2-node clusters on the same per-round data produce
        the same model (data-parallel determinism)."""
        cfg1 = ClusterConfig(
            n_nodes=1, gpus_per_node=4, minibatches_per_gpu=2,
            mem_capacity_params=8_000, hbm_capacity_params=50_000,
            ssd_file_capacity=128, seed=7,
        )
        # Note: a 2-node cluster reads 2 batches/round, so this checks
        # self-consistency of each deployment rather than cross-equality.
        c = HPSCluster(tiny_spec, cfg1, functional_batch_size=256)
        stats = c.train(3)
        assert all(s.n_examples == 256 for s in stats)

    def test_three_nodes_non_power_of_two(self, tiny_spec):
        cfg = ClusterConfig(
            n_nodes=3, gpus_per_node=2, minibatches_per_gpu=1,
            mem_capacity_params=6_000, hbm_capacity_params=50_000,
            ssd_file_capacity=128, seed=3,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=128)
        ref = ReferenceTrainer(tiny_spec, cfg, functional_batch_size=128)
        for _ in range(2):
            s = cluster.train_round()
            l = ref.train_round()
            assert s.mean_loss == pytest.approx(l, rel=1e-6)


class TestTrainer:
    def test_history_collection(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        eval_batch = cluster.generator.batch(999, 512)
        trainer = Trainer(cluster, eval_batch=eval_batch, eval_every=2)
        hist = trainer.run(4)
        assert hist.n_rounds == 4
        assert len(hist.aucs) == 2
        assert hist.throughput() > 0

    def test_final_auc_requires_eval_batch(self, cluster):
        trainer = Trainer(cluster)
        with pytest.raises(ValueError):
            trainer.final_auc()


class TestRoundBoundaryGuard:
    """Cross-tier reads are rejected while HBM holds the only fresh copy."""

    def test_lookup_rejected_mid_round(self, cluster):
        from repro.core.cluster import RoundContext

        cluster.train_round()
        probe = cluster.generator.batch(100, 64).unique_keys()
        ctx = RoundContext(round_index=cluster.rounds_completed)
        cluster.stage_read(ctx)
        cluster.stage_prepare(ctx)
        cluster.lookup_embeddings(probe)  # prepare alone is still coherent
        cluster.stage_load(ctx)
        with pytest.raises(RuntimeError, match="round boundary"):
            cluster.lookup_embeddings(probe)
        with pytest.raises(RuntimeError, match="round boundary"):
            cluster.evaluate_auc(cluster.generator.batch(101, 64))
        cluster.stage_train(ctx)
        # Write-back landed: the MEM tier is authoritative again.
        cluster.lookup_embeddings(probe)

    def test_training_modes_end_quiescent(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
        cluster.train(2)
        assert cluster._staged_rounds == 0
        cluster.train_pipelined(2)
        assert cluster._staged_rounds == 0
