"""Tests for the embedding layer, sparse/dense optimizers, and the CTR
model's end-to-end gradients."""

import numpy as np
import pytest

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.embedding import EmbeddingLayer
from repro.nn.loss import bce_with_logits
from repro.nn.model import CTRModel, Shard
from repro.nn.optim import LEARNING_RATE, DenseAdagrad, SparseAdagrad


def make_batch(rows, labels=None):
    keys = np.array([k for r in rows for k in r], dtype=np.uint64)
    offsets = np.cumsum([0] + [len(r) for r in rows])
    labels = labels if labels is not None else [0.0] * len(rows)
    return Batch(keys, offsets, np.array(labels, dtype=np.float32))


class TestEmbeddingForward:
    def test_sum_pooling_per_slot(self):
        layer = EmbeddingLayer(n_slots=2, dim=2)
        batch = make_batch([[0, 1, 2, 3]])  # 2 ids per slot
        uniq = np.array([0, 1, 2, 3], dtype=np.uint64)
        emb = np.array([[1, 0], [2, 0], [0, 3], [0, 4]], dtype=np.float32)
        out = layer.forward(batch, uniq, emb)
        # slot0 = rows 0+1 = [3,0]; slot1 = rows 2+3 = [0,7]
        assert out.tolist() == [[3.0, 0.0, 0.0, 7.0]]

    def test_repeated_key_counts_twice(self):
        layer = EmbeddingLayer(1, 1)
        batch = make_batch([[5, 5]])
        uniq = np.array([5], dtype=np.uint64)
        out = layer.forward(batch, uniq, np.array([[2.0]], dtype=np.float32))
        assert out[0, 0] == 4.0

    def test_missing_key_raises(self):
        layer = EmbeddingLayer(1, 1)
        batch = make_batch([[9]])
        with pytest.raises(KeyError):
            layer.forward(
                batch, np.array([1], dtype=np.uint64), np.zeros((1, 1), np.float32)
            )

    def test_non_divisible_row_rejected(self):
        layer = EmbeddingLayer(2, 1)
        batch = make_batch([[1, 2, 3]])  # length 3, 2 slots
        with pytest.raises(ValueError, match="divisible"):
            layer.forward(
                batch,
                np.array([1, 2, 3], dtype=np.uint64),
                np.zeros((3, 1), np.float32),
            )

    def test_empty_rows_with_single_slot(self):
        layer = EmbeddingLayer(1, 2)
        batch = make_batch([[], [4], []])
        uniq = np.array([4], dtype=np.uint64)
        out = layer.forward(batch, uniq, np.ones((1, 2), dtype=np.float32))
        assert out[0].tolist() == [0.0, 0.0]
        assert out[1].tolist() == [1.0, 1.0]


class TestEmbeddingBackward:
    def test_gradient_scatter(self):
        layer = EmbeddingLayer(1, 1)
        batch = make_batch([[1, 2], [2]])
        uniq = np.array([1, 2], dtype=np.uint64)
        layer.forward(batch, uniq, np.zeros((2, 1), np.float32))
        grad = layer.backward(
            np.array([[1.0], [10.0]]), uniq.searchsorted(batch.keys), uniq.size
        )
        # key1 appears in row0; key2 in rows 0 and 1.
        assert grad[:, 0].tolist() == [1.0, 11.0]

    def test_numerical_gradient(self):
        rng = np.random.default_rng(0)
        layer = EmbeddingLayer(2, 2)
        batch = make_batch([[0, 1, 2, 3], [1, 0, 3, 2]], labels=[1, 0])
        uniq = np.array([0, 1, 2, 3], dtype=np.uint64)
        emb = rng.normal(size=(4, 2)).astype(np.float32)

        def loss_of(e):
            out = layer.forward(batch, uniq, e.astype(np.float32))
            (loss,), _, _ = bce_with_logits(out.sum(axis=1), batch.labels)
            return loss

        out = layer.forward(batch, uniq, emb)
        _, _, gl = bce_with_logits(out.sum(axis=1), batch.labels)
        grad_feats = np.repeat(gl[:, None], out.shape[1], axis=1)
        sg = layer.backward(grad_feats, uniq.searchsorted(batch.keys), uniq.size)
        eps = 1e-4
        for i, j in [(0, 0), (3, 1)]:
            ep = emb.copy()
            ep[i, j] += eps
            em = emb.copy()
            em[i, j] -= eps
            numeric = (loss_of(ep) - loss_of(em)) / (2 * eps)
            assert sg[i, j] == pytest.approx(numeric, rel=1e-2, abs=1e-6)

    def test_backward_before_forward(self):
        layer = EmbeddingLayer(1, 1)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 1)


class TestSparseOptimizers:
    def test_adagrad_value_dim_doubles(self):
        assert SparseAdagrad(4).value_dim == 8

    def test_specs_are_pinned(self):
        """Every committed snapshot's manifest fingerprint hashes these."""
        assert SparseAdagrad(4).spec() == {
            "type": "SparseAdagrad", "dim": 4, "lr": 0.05, "value_dim": 8,
            "eps": 1e-6,
        }
        assert DenseAdagrad().spec() == {
            "type": "DenseAdagrad", "lr": 0.05, "eps": 1e-6,
        }

    def test_adagrad_decreasing_effective_lr(self):
        opt = SparseAdagrad(1)
        v = np.zeros((1, 2), np.float32)
        g = np.ones((1, 1))
        v1 = opt.apply(v, g)
        step1 = abs(v1[0, 0])
        v2 = opt.apply(v1, g)
        step2 = abs(v2[0, 0] - v1[0, 0])
        assert step2 < step1
        assert v2[0, 1] == 2.0  # accumulator = sum of squares

    def test_init_for_keys_deterministic_and_order_free(self):
        opt = SparseAdagrad(4)
        keys = np.array([10, 20, 30], dtype=np.uint64)
        a = opt.init_for_keys(keys, seed=5)
        b = opt.init_for_keys(keys[::-1], seed=5)[::-1]
        assert np.array_equal(a, b)
        # accumulator half starts at zero
        assert np.all(a[:, 4:] == 0)

    def test_init_for_keys_is_free_of_batch_composition(self):
        """A key's initial row is the same alone or in any batch, so it
        does not matter which node's batch first holds the key."""
        opt = SparseAdagrad(3)
        keys = np.array([2**40 + 7, 3, 99, 2**21], dtype=np.uint64)
        whole = opt.init_for_keys(keys, seed=11)
        for i, key in enumerate(keys):
            alone = opt.init_for_keys(np.array([key], dtype=np.uint64), seed=11)
            assert np.array_equal(alone[0], whole[i])
        assert np.array_equal(opt.init_for_keys(keys[1:3], seed=11), whole[1:3])
        assert np.unique(whole[:, :3], axis=0).shape[0] == keys.size

    def test_init_for_keys_seed_sensitivity(self):
        opt = SparseAdagrad(2)
        keys = np.array([1, 2], dtype=np.uint64)
        assert not np.array_equal(
            opt.init_for_keys(keys, seed=1), opt.init_for_keys(keys, seed=2)
        )

    def test_embedding_slice(self):
        opt = SparseAdagrad(2)
        values = np.array([[1, 2, 9, 9]], dtype=np.float32)
        assert opt.embedding(values).tolist() == [[1.0, 2.0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseAdagrad(0)
        with pytest.raises(ValueError):
            SparseAdagrad(2).apply(np.zeros((1, 4), np.float32), np.zeros((2, 2)))


class TestDenseOptimizers:
    def test_adagrad_bounded_first_step(self):
        p = [np.zeros(2, dtype=np.float32)]
        DenseAdagrad().step(p, [np.array([1.0, 100.0])])
        # Adagrad normalizes: both coordinates move ~lr on first step.
        assert np.allclose(p[0], -LEARNING_RATE, rtol=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DenseAdagrad().step([np.zeros(2)], [])


class TestCTRModel:
    @pytest.fixture
    def spec(self):
        return ModelSpec(
            name="m",
            nonzeros_per_example=4,
            n_sparse=100,
            n_dense=10,
            size_gb=0.001,
            mpi_nodes=1,
            embedding_dim=2,
            hidden_layers=(8,),
            n_slots=2,
        )

    def test_train_minibatch_returns_sparse_grads(self, spec):
        model = CTRModel(spec, seed=0)
        batch = make_batch([[0, 1, 2, 3]], labels=[1])
        emb = np.zeros((4, 2), dtype=np.float32)
        shard = Shard.of(batch)
        (result,) = model.train_minibatch(emb, [shard])
        assert shard.keys.tolist() == [0, 1, 2, 3]
        assert result.sparse_grads.shape == (4, 2)
        assert result.loss > 0
        assert [g.shape for g in result.dense_grads] == [
            p.shape for p in model.mlp.parameters()
        ]

    def test_training_reduces_loss(self, spec):
        from repro.data.generator import CTRDataGenerator

        model = CTRModel(spec, seed=0)
        sparse_opt = SparseAdagrad(2)
        dense_opt = DenseAdagrad()
        gen = CTRDataGenerator(spec, seed=0)
        store: dict[int, np.ndarray] = {}

        def fetch(keys):
            out = np.zeros((keys.size, sparse_opt.value_dim), np.float32)
            for i, k in enumerate(keys):
                if int(k) not in store:
                    store[int(k)] = sparse_opt.init_for_keys(
                        keys[i : i + 1], seed=0
                    )[0]
                out[i] = store[int(k)]
            return out

        batch = gen.batch(0, 256)
        losses = []
        for _ in range(30):
            shard = Shard.of(batch)
            values = fetch(shard.keys)
            (res,) = model.train_minibatch(values, [shard])
            new_vals = sparse_opt.apply(values, res.sparse_grads)
            for i, k in enumerate(shard.keys):
                store[int(k)] = new_vals[i]
            dense_opt.step(
                model.mlp.parameters(),
                [g.astype(np.float32) for g in res.dense_grads],
            )
            losses.append(res.loss)
        assert losses[-1] < losses[0] * 0.8

    def test_predict_proba_in_unit_interval(self, spec):
        model = CTRModel(spec, seed=0)
        batch = make_batch([[0, 1, 2, 3]])
        uniq = np.array([0, 1, 2, 3], dtype=np.uint64)
        p = model.predict_proba(batch, uniq, np.zeros((4, 2), np.float32))
        assert np.all((p > 0) & (p < 1))

    def test_dense_state_roundtrip(self, spec):
        a = CTRModel(spec, seed=0)
        b = CTRModel(spec, seed=5)
        b.mlp.load_state_dict(a.mlp.state_dict())
        batch = make_batch([[0, 1, 2, 3]])
        uniq = np.array([0, 1, 2, 3], dtype=np.uint64)
        emb = np.ones((4, 2), dtype=np.float32)
        assert np.array_equal(
            a.forward(batch, uniq, emb), b.forward(batch, uniq, emb)
        )
