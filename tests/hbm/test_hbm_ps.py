"""Tests for the HBM-PS facade, driven through round plans."""

import numpy as np
import pytest

from hbm_oracles import DistributedHashTable
from priced import hbm_ps
from repro.errors import TierStateError
from repro.hardware.ledger import CostLedger
from repro.nn.optim import SparseAdagrad


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


@pytest.fixture
def ps():
    """Two floats a key: the embedding, then its accumulator."""
    return hbm_ps(2, 1000, SparseAdagrad(1), CostLedger())


@pytest.fixture
def staged(ps, round_plan):
    """Stage one node's working set; returns the round's RoundPlan.

    ``shards`` are the two workers' key lists (GPU 0, GPU 1).  ``values``
    is the round array (zeros by default); with one node its rows are
    the node's sorted keys.
    """

    def stage(shards, values=None, *, hbm=ps):
        plan = round_plan(
            [shards], n_gpus=2, gpu_partitioner=hbm.params.partitioner
        )
        if values is None:
            values = np.zeros(
                (plan.keys.size, hbm.optimizer.value_dim), dtype=np.float32
            )
        hbm.load_working_set(values, plan.nodes[0])
        return plan

    return stage


def pulled(ps, mb):
    """The rows a worker's pull reads: the staged round array's at the
    mini-batch's codes (the trainer gathers them; the pull charges)."""
    return ps.optimizer.embedding(ps._round().values[mb.codes])


class TestLoadPull:
    def test_pull_charges_and_copies_nothing(self, ps, staged):
        values = np.arange(20, dtype=np.float32).reshape(10, 2)
        plan = staged([range(10), []], values)
        mb = plan.nodes[0].minibatches[0]
        t = ps.pull_embeddings(mb, gpu=0)
        assert isinstance(t, float) and t > 0
        assert ps.ledger.total("hbm_pull") > 0
        assert np.array_equal(pulled(ps, mb), values[:, :1])  # the embedding

    def test_pull_gathers_the_workers_own_keys(self, ps, staged):
        values = np.arange(8, dtype=np.float32).reshape(4, 2)
        plan = staged([[4, 1], [5, 1, 0]], values)  # working set: 0 1 4 5
        node = plan.nodes[0]
        assert node.keys.tolist() == [0, 1, 4, 5]
        assert node.minibatches[1].keys.tolist() == [0, 1, 5]
        assert np.array_equal(pulled(ps, node.minibatches[1]), values[[0, 1, 3], :1])

    def test_adagrad_embedding_slice(self, staged):
        ps = hbm_ps(2, 1000, SparseAdagrad(2), CostLedger())
        values = np.array(
            [[1, 2, 10, 20], [3, 4, 30, 40]], dtype=np.float32
        )  # emb + accumulator
        plan = staged([[1, 2], []], values, hbm=ps)
        assert pulled(ps, plan.nodes[0].minibatches[0]).tolist() == [[1, 2], [3, 4]]

    def test_reload_replaces_working_set(self, ps, staged):
        staged([[1], []], np.ones((1, 2), dtype=np.float32))
        staged([[2], []], np.full((1, 2), 2.0, dtype=np.float32))
        k, v = ps.dump()
        assert k.tolist() == [2]
        assert np.all(v == 2.0)

    def test_staging_is_a_view_of_the_round_array(self, round_plan):
        """Nodes stage views of one round array: a key both nodes stage
        has one value, and a write to it is what both nodes' workers
        pull."""
        a = hbm_ps(2, 1000, SparseAdagrad(1), CostLedger())
        b = hbm_ps(2, 1000, SparseAdagrad(1), CostLedger())
        plan = round_plan(
            [[[1, 2], []], [[2, 3], []]],
            n_gpus=2,
            gpu_partitioner=a.params.partitioner,
        )
        assert plan.keys.tolist() == [1, 2, 3]
        values = np.zeros((3, 2), dtype=np.float32)
        for ps, node in zip((a, b), plan.nodes):
            ps.load_working_set(values, node)
        values[1] = 5.0
        emb_a = pulled(a, plan.nodes[0].minibatches[0])
        emb_b = pulled(b, plan.nodes[1].minibatches[0])
        assert emb_a.tolist() == [[0.0], [5.0]]
        assert emb_b.tolist() == [[5.0], [0.0]]

    def test_partition_over_capacity_raises(self, round_plan):
        ps = hbm_ps(2, 3, SparseAdagrad(1), CostLedger())
        plan = round_plan(
            [[range(20), []]], n_gpus=2, gpu_partitioner=ps.params.partitioner
        )
        with pytest.raises(RuntimeError, match="capacity exceeded"):
            ps.load_working_set(
                np.zeros((20, 2), dtype=np.float32), plan.nodes[0]
            )

    def test_ops_before_staging_raise(self, ps, round_plan):
        plan = round_plan([[[1], []]], n_gpus=2)
        with pytest.raises(RuntimeError, match="no working set staged"):
            ps.pull_embeddings(plan.nodes[0].minibatches[0])

    def test_misuse_is_one_typed_error(self, ps, round_plan):
        """Every op before ``load_working_set`` and the capacity check
        raise ``TierStateError`` (a ``RuntimeError``, so older handlers
        still catch it)."""
        plan = round_plan([[[1], []]], n_gpus=2)
        mb, sync = plan.nodes[0].minibatches[0], plan.sync[0].nodes[0]
        for op in (
            lambda: ps.pull_embeddings(mb),
            lambda: ps.push_gradients(mb, np.ones((1, 1), dtype=np.float32)),
            lambda: ps.drain_gradients(sync),
            lambda: ps.apply_update(sync),
            ps.dump,
        ):
            with pytest.raises(TierStateError, match="load_working_set first"):
                op()
        small = hbm_ps(2, 3, SparseAdagrad(1), CostLedger())
        big = round_plan(
            [[range(20), []]], n_gpus=2, gpu_partitioner=small.params.partitioner
        )
        with pytest.raises(TierStateError, match="capacity exceeded"):
            small.load_working_set(
                np.zeros((20, 2), dtype=np.float32), big.nodes[0]
            )


class TestPushDrain:
    def test_push_accumulates_and_drain_clears(self, ps, staged):
        plan = staged([[1, 2], [2]])
        mb0, mb1 = plan.nodes[0].minibatches
        sync = plan.sync[0].nodes[0]
        ps.push_gradients(mb0, np.ones((2, 1), dtype=np.float32), gpu=0)
        ps.push_gradients(mb1, np.ones((1, 1), dtype=np.float32), gpu=1)
        update = ps.drain_gradients(sync)
        assert update.keys.tolist() == [1, 2]
        assert update.grads[:, 0].tolist() == [1.0, 2.0]
        assert update.grads.dtype == np.float64
        # Drained: the next sync round starts from an all-zero buffer.
        again = ps.drain_gradients(sync)
        assert again.keys.tolist() == [1, 2]
        assert not again.grads.any()

    def test_workers_on_different_gpus_merge(self, ps, staged):
        plan = staged([range(8), range(8)])
        for gpu, mb in enumerate(plan.nodes[0].minibatches):
            ps.push_gradients(mb, np.full((8, 1), 0.5, dtype=np.float32), gpu=gpu)
        update = ps.drain_gradients(plan.sync[0].nodes[0])
        assert np.all(update.grads == 1.0)


class TestApplyUpdate:
    """A sync round's update is applied once, to the round array at the
    sync union's codes (``HPSCluster.stage_train``); ``apply_update``
    charges each node for its staged share."""

    @staticmethod
    def _apply(values, sync, grads, opt):
        values[sync.codes] = opt.apply(values[sync.codes], grads)

    def test_apply_writes_the_optimizer_step(self, ps, staged):
        values = np.zeros((2, 2), dtype=np.float32)
        expected = ps.optimizer.apply(values, np.ones((2, 1)))
        plan = staged([[1, 2], []], values)
        self._apply(values, plan.sync[0], np.ones((2, 1)), ps.optimizer)
        t = ps.apply_update(plan.sync[0].nodes[0])
        assert t > 0
        assert np.array_equal(values, expected)
        emb = pulled(ps, plan.nodes[0].minibatches[0])
        assert np.array_equal(emb, expected[:, :1])

    def test_missing_keys_reported(self, ps, round_plan):
        """Keys of the global update only another node staged are not
        charged here — the node pays for its staged share — yet the one
        apply updates them too, for their MEM owner to write back."""
        plan = round_plan(
            [[[1], []], [[5, 9], []]],
            n_gpus=2,
            gpu_partitioner=ps.params.partitioner,
        )
        values = np.zeros((3, 2), dtype=np.float32)
        expected = ps.optimizer.apply(values, np.ones((3, 1)))
        ps.load_working_set(values, plan.nodes[0])
        sync = plan.sync[0]
        assert sync.keys.tolist() == [1, 5, 9]
        assert sync.nodes[0].resident_gpu_counts.sum() == 1
        self._apply(values, sync, np.ones((3, 1)), ps.optimizer)
        t = ps.apply_update(sync.nodes[0])
        solo = hbm_ps(2, 1000, SparseAdagrad(1), CostLedger())
        alone = round_plan(
            [[[1], []]], n_gpus=2, gpu_partitioner=solo.params.partitioner
        )
        solo.load_working_set(np.zeros((1, 2), dtype=np.float32), alone.nodes[0])
        assert t == solo.apply_update(alone.sync[0].nodes[0])
        assert np.array_equal(values, expected)
        emb = pulled(ps, plan.nodes[0].minibatches[0])
        assert np.array_equal(emb, expected[:1, :1])

    def test_empty_update_noop(self, ps, staged):
        plan = staged([[], []])
        before = dict(ps.ledger)
        assert ps.apply_update(plan.sync[0].nodes[0]) == 0.0
        assert dict(ps.ledger) == before

    def test_gradient_alignment_across_partitions(self, ps, staged):
        """Each key — whichever GPU stages it — must receive *its own*
        gradient row."""
        values = np.zeros((20, 2), dtype=np.float32)
        plan = staged([range(20), []], values)
        assert plan.sync[0].keys.tolist() == list(range(20))
        grads = np.arange(20, dtype=np.float64).reshape(20, 1)
        expected = ps.optimizer.apply(values, grads)
        self._apply(values, plan.sync[0], grads, ps.optimizer)
        assert np.array_equal(values[:, 1:], grads**2)  # each key's own
        emb = pulled(ps, plan.nodes[0].minibatches[0])
        assert np.array_equal(emb, expected[:, :1])


class TestDump:
    def test_dump_returns_everything_sorted(self, ps, staged):
        staged([[9, 3, 7], []], np.ones((3, 2), dtype=np.float32))
        k, v = ps.dump()
        assert k.tolist() == [3, 7, 9]
        assert v.shape == (3, 2)


class TestCostModelEquivalence:
    """``_charge_table_ops`` prices a key partition exactly as the
    Section 4.1 / Algorithm 2 hash tables (``tests/hbm_oracles.py``) do —
    the cost-model equivalence the dense staging rests on."""

    @staticmethod
    def _pair():
        ps = hbm_ps(4, 1000, SparseAdagrad(1), CostLedger())
        # Rows of 3 floats, the width every charge below prices.
        dht = DistributedHashTable(4, 1000, 3, CostLedger())
        return ps, dht

    @staticmethod
    def _assert_same_ledger(ps, dht):
        a, b = ps.ledger.export_state(), dht.ledger.export_state()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    @pytest.mark.parametrize("source_gpu", [0, 3])
    def test_matches_distributed_table(self, source_gpu):
        ps, dht = self._pair()
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 10_000, size=300).astype(np.uint64))
        values = rng.normal(size=(keys.size, 3)).astype(np.float32)
        counts = np.bincount(
            ps.params.partitioner.part_of(keys), minlength=ps.n_gpus
        )
        assert np.array_equal(
            counts,
            np.bincount(dht.partitioner.part_of(keys), minlength=dht.n_gpus),
        )

        t = ps._charge_table_ops(3, counts, "hbm_insert", include_empty=True)
        assert t == dht.insert(keys, values)
        self._assert_same_ledger(ps, dht)

        t = ps._charge_table_ops(3, counts, "hbm_pull", source_gpu=source_gpu)
        assert t == dht.get(keys, source_gpu=source_gpu)[1]
        self._assert_same_ledger(ps, dht)

        t = ps._charge_table_ops(3, counts, "hbm_push", source_gpu=source_gpu)
        assert t == dht.accumulate(keys, values, source_gpu=source_gpu)
        self._assert_same_ledger(ps, dht)
        assert ps.nvlink.bytes_moved == dht.nvlink.bytes_moved

    def test_empty_partitions_charged_only_on_insert(self):
        """A GPU with no keys still pays the insert kernel launch (the
        table ingests an empty partition) but skips pull/push."""
        ps, dht = self._pair()
        keys = keys_of([11])
        counts = np.bincount(
            ps.params.partitioner.part_of(keys), minlength=ps.n_gpus
        )
        assert (counts == 0).sum() == 3
        t = ps._charge_table_ops(3, counts, "hbm_insert", include_empty=True)
        assert t == dht.insert(keys, np.zeros((1, 3), dtype=np.float32))
        t = ps._charge_table_ops(3, counts, "hbm_pull", source_gpu=0)
        assert t == dht.get(keys, source_gpu=0)[1]
        self._assert_same_ledger(ps, dht)
