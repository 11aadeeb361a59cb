"""Integration tests for the full hierarchical PS cluster (Algorithm 1)."""

import collections
import dataclasses
import gc
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

from repro.ckpt.checkpoint import restore_nodes
from repro.config import ClusterConfig
from repro.core.cluster import HPSCluster
from repro.core.trainer import ReferenceTrainer
from repro.errors import KeyDomainError
from repro.faults import FAULT_KINDS, FaultSchedule, Supervisor
from repro.hardware.ledger import CostLedger
from repro.plan import RoundPlan
from repro.utils.keys import KEY_DOMAIN_CAP


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
        assert s.read_seconds > 0

    @pytest.mark.parametrize("build", [HPSCluster, ReferenceTrainer])
    def test_n_sparse_past_the_key_domain_is_refused(
        self, build, tiny_spec, small_config
    ):
        """Every store index addresses ``[0, n_sparse)`` directly, so a
        model whose ids reach the cap is refused before any tier exists."""
        build(dataclasses.replace(tiny_spec, n_sparse=KEY_DOMAIN_CAP), small_config)
        spec = dataclasses.replace(tiny_spec, n_sparse=KEY_DOMAIN_CAP + 1)
        with pytest.raises(KeyDomainError, match=f"key {KEY_DOMAIN_CAP},"):
            build(spec, small_config)

    def test_largest_seeds_build_a_cluster(self, tiny_spec, small_config):
        config = dataclasses.replace(small_config, seed=2**64 - 1)
        HPSCluster(tiny_spec, config).train_round()

    @pytest.mark.parametrize("size", [0, -1])
    def test_functional_batch_size_below_one_is_refused(
        self, tiny_spec, small_config, size
    ):
        """A zero size once fell back to ``ClusterConfig.batch_size``
        (4,000,000 examples per read) while the cluster and its
        checkpoint manifest recorded 0."""
        with pytest.raises(ValueError, match="functional_batch_size"):
            HPSCluster(tiny_spec, small_config, functional_batch_size=size)
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=64)
        assert [n.hdfs.batch_size for n in cluster.nodes] == [64, 64]

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

    def test_dense_replicas_stay_identical(
        self, tiny_spec, small_config, tmp_path
    ):
        """Every worker of a sync round trains on the lead's tower, which
        is right only while each node's replica — weights and optimizer
        accumulators — is the lead's bit for bit.  Checked after every
        round: lockstep, pipelined, on a cluster restored from a
        snapshot, and after the lead itself is rebuilt in place."""

        def replicas_agree(cluster) -> float:
            lead = cluster.nodes[0]
            for node in cluster.nodes[1:]:
                for mine, theirs in zip(
                    node.model.dense_state() + node.dense_optimizer.get_state(),
                    lead.model.dense_state() + lead.dense_optimizer.get_state(),
                ):
                    assert mine.tobytes() == theirs.tobytes()
            checked.append(cluster.rounds_completed)
            return 0.0

        def probed(cluster):
            cluster.register_stage(
                "probe", lambda ctx: replicas_agree(cluster), after="train"
            )
            return cluster

        for mode in ("lockstep", "pipelined", "restore", "restore_lead"):
            checked: list[int] = []
            ckpt = str(tmp_path / mode)
            cluster = probed(
                HPSCluster(tiny_spec, small_config, functional_batch_size=256)
            )
            if mode == "pipelined":
                cluster.train_pipelined(3)
            else:
                cluster.train(3)
            if mode == "restore":
                cluster.save_checkpoint(ckpt)
                cluster = probed(HPSCluster.restore(ckpt))
            elif mode == "restore_lead":
                cluster.save_checkpoint(ckpt)
                restore_nodes(cluster, ckpt, [0])
            cluster.train(3)
            assert checked == [1, 2, 3, 4, 5, 6], mode


def _objects_under(obj, seen):
    """Every object reachable from ``obj`` through repro objects'
    ``__dict__`` and ``__slots__``, plain containers, and functions'
    closures and attributes (the stage registry's closures)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
        children = list(obj)
    elif isinstance(obj, types.FunctionType):
        cells = [cell.cell_contents for cell in obj.__closure__ or ()]
        children = cells + list(vars(obj).values())
    elif isinstance(obj, types.MethodType):
        children = [obj.__self__, obj.__func__]
    elif type(obj).__module__.startswith("repro."):
        names = list(getattr(obj, "__dict__", ()))
        for klass in type(obj).__mro__:
            names += list(getattr(klass, "__slots__", ()))
        children = [getattr(obj, name, None) for name in names]
    else:
        return
    for child in children:
        yield from _objects_under(child, seen)


def _foreign_ledgers(cluster) -> list[CostLedger]:
    """The ledgers reachable from ``cluster`` that are no node's own, and
    the nodes' own ledgers none of the walk reached."""
    nodes = {id(node.ledger): node.ledger for node in cluster.nodes}
    found = {
        id(o): o for o in _objects_under(cluster, set()) if isinstance(o, CostLedger)
    }
    return [found[k] for k in found.keys() - nodes.keys()] + [
        nodes[k] for k in nodes.keys() - found.keys()
    ]


class TestTiersTakeTheConfig:
    def test_every_tier_setting_is_the_config_value(self, tiny_spec):
        """The tiers keep no default of their own for a ClusterConfig
        field: each node's tiers carry exactly the config's values."""
        cfg = ClusterConfig(
            n_nodes=2,
            gpus_per_node=2,
            mem_capacity_params=3_000,
            hbm_capacity_params=40_000,
            ssd_file_capacity=64,
            cache_lru_fraction=0.25,
            compaction_threshold=1.5,
            seed=3,
        )
        cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=32)
        for node in cluster.nodes:
            cache = node.mem_ps.cache
            assert (cache.lru_capacity, cache.lfu_capacity) == (750, 2_250)
            assert node.mem_ps.partitioner.n_parts == cfg.n_nodes
            assert node.mem_ps._init_seed == cfg.seed
            assert node.ssd_ps.store.file_capacity == cfg.ssd_file_capacity
            assert node.ssd_ps.compactor.usage_threshold == 1.5
            assert node.hbm_ps.capacity_per_gpu == cfg.hbm_capacity_params
            assert node.hbm_ps.n_gpus == cfg.gpus_per_node
            assert node.hdfs.batch_size == 32


class TestEveryChargeLandsOnANodeLedger:
    """Every priced component takes its node's ledger: the set of
    ``CostLedger``s reachable from a cluster is exactly its nodes' own,
    so the nodes' totals are every simulated second charged."""

    @staticmethod
    def _config(n_nodes: int) -> ClusterConfig:
        # The fault soak's pressured MEM budget.
        return ClusterConfig(
            n_nodes=n_nodes,
            gpus_per_node=2,
            minibatches_per_gpu=2,
            mem_capacity_params=1_400,
            hbm_capacity_params=50_000,
            ssd_file_capacity=128,
            seed=7,
        )

    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_lockstep_and_pipelined_rounds_with_a_snapshot_stage(
        self, tiny_spec, n_nodes, tmp_path
    ):
        config = self._config(n_nodes)
        cluster = HPSCluster(tiny_spec, config, functional_batch_size=256)
        assert _foreign_ledgers(cluster) == []
        cluster.enable_snapshot_stage(str(tmp_path / "snap"), every=2)
        cluster.train(2)
        cluster.train_pipelined(3)
        assert all(node.ledger.total("ckpt_write") > 0 for node in cluster.nodes)
        assert _foreign_ledgers(cluster) == []

    def test_a_supervised_fault_soak_run(self, tiny_spec, tmp_path):
        """Checked inside every round, while the fault arms are attached,
        and after the run, on whatever nodes the recoveries rebuilt."""
        cluster = HPSCluster(tiny_spec, self._config(2), functional_batch_size=512)
        foreign: list[list[CostLedger]] = []

        def probe(ctx) -> float:
            foreign.append(_foreign_ledgers(cluster))
            return 0.0

        cluster.register_stage("probe", probe, after="train")
        schedule = FaultSchedule(
            11, rates={kind: 0.05 for kind in FAULT_KINDS}, max_faults=16
        )
        run = Supervisor(str(tmp_path / "sup"), checkpoint_every=2).run(
            cluster, 6, schedule, pipelined=True
        )
        assert run.rounds == 6
        assert "full_restore" in {report.action for report in run.reports}
        assert foreign and not any(foreign)
        assert _foreign_ledgers(run.cluster) == []


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
                arrays = [
                    o for o in _objects_under(hbm, set()) if isinstance(o, np.ndarray)
                ]
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


class TestTrainingImports:
    def test_training_path_does_not_import_the_analysis_package(
        self, tiny_spec, small_config
    ):
        """The linter is a tool over the tree, not part of training: a
        fresh interpreter that imports the cluster and trains a
        pipelined round has loaded no ``repro.analysis`` module."""
        script = "\n".join(
            [
                "import sys",
                "import repro.core.cluster as cm",
                "from repro.config import ClusterConfig, ModelSpec",
                f"cm.HPSCluster({tiny_spec!r}, {small_config!r}, "
                "functional_batch_size=192).train_pipelined(1)",
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.analysis')))",
            ]
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPredict:
    def test_predict_is_byte_equal_to_the_searchsorted_path(
        self, tiny_spec, small_config
    ):
        """Twin clusters whose MEM tier spills to SSD: ``predict`` (one
        dedup, its codes handed to the forward) on one is byte-equal to
        looking up ``batch.unique_keys()`` and letting the forward find
        every key on the other, and both end with the same SSD read
        charges."""
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
