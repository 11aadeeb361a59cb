"""Tests for the LR baseline and the SimpleDNN hashing-study trainer."""

import numpy as np
import pytest

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.errors import KeyDomainError
from repro.hashing.dnn import SimpleDNN
from repro.hashing.lr import SparseLogisticRegression
from repro.utils.keys import KEY_DOMAIN_CAP


@pytest.fixture
def data():
    spec = ModelSpec(
        name="lr-test",
        nonzeros_per_example=8,
        n_sparse=2_000,
        n_dense=100,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=4,
        n_slots=4,
    )
    gen = CTRDataGenerator(spec, seed=0)
    return [gen.batch(i, 512) for i in range(6)], gen.batch(100, 2048)


class TestLR:
    def test_learns_signal(self, data):
        train, test = data
        lr = SparseLogisticRegression(2_000, lr=0.3)
        lr.fit(train, epochs=3)
        assert lr.evaluate_auc(test) > 0.6

    def test_loss_decreases(self, data):
        train, _ = data
        lr = SparseLogisticRegression(2_000, lr=0.3)
        losses = lr.fit(train, epochs=3)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_nonzero_weights_counts_touched_features(self, data):
        train, _ = data
        lr = SparseLogisticRegression(2_000, lr=0.3)
        assert lr.n_nonzero_weights == 0
        lr.partial_fit(train[0])
        assert 0 < lr.n_nonzero_weights <= 2_000

    def test_feature_out_of_range(self):
        lr = SparseLogisticRegression(10)
        bad = CTRDataGenerator(
            ModelSpec("x", 4, 1000, 10, 0.001, 1, embedding_dim=2, n_slots=2),
            seed=0,
        ).batch(0, 8)
        with pytest.raises(IndexError):
            lr.partial_fit(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseLogisticRegression(0)
        with pytest.raises(ValueError):
            SparseLogisticRegression(10, lr=-1)

    def test_probabilities_valid(self, data):
        train, test = data
        lr = SparseLogisticRegression(2_000, lr=0.3)
        lr.fit(train[:2])
        p = lr.predict_proba(test)
        assert np.all((p > 0) & (p < 1))


class TestSimpleDNN:
    def test_learns_signal(self, data):
        train, test = data
        dnn = SimpleDNN(n_slots=4, seed=0)
        dnn.fit(train, epochs=3)
        assert dnn.evaluate_auc(test) > 0.6

    def test_beats_lr_with_slot_structure(self, data):
        """The embedding DNN must outperform LR on interaction-bearing
        data — the justification for DNN CTR models (Tables 1-2)."""
        train, test = data
        lr = SparseLogisticRegression(2_000, lr=0.3)
        lr.fit(train, epochs=3)
        dnn = SimpleDNN(n_slots=4, seed=0)
        dnn.fit(train, epochs=3)
        assert dnn.evaluate_auc(test) >= lr.evaluate_auc(test) - 0.02

    def test_embedding_store_grows(self, data):
        train, _ = data
        dnn = SimpleDNN(n_slots=4, seed=0)
        assert dnn.n_embedding_params == 0
        dnn.train_batch(train[0])
        assert dnn.n_embedding_params > 0

    def test_empty_batch_handled(self):
        dnn = SimpleDNN(n_slots=1)
        empty = Batch(
            np.array([], dtype=np.uint64),
            np.zeros(2, dtype=np.int64),
            np.array([0.0], dtype=np.float32),
        )
        loss = dnn.train_batch(empty)
        assert np.isnan(loss)

    def test_deterministic_given_seed(self, data):
        train, test = data
        a = SimpleDNN(n_slots=4, seed=1)
        b = SimpleDNN(n_slots=4, seed=1)
        a.fit(train[:2])
        b.fit(train[:2])
        assert np.array_equal(a.predict_proba(test), b.predict_proba(test))

    def test_out_of_domain_key_refused_before_any_batch_trains(self, data):
        """A key past the store's domain in the second batch is refused
        before the first batch trains: store empty, dense weights as
        built."""
        train, _ = data
        ok, late = train[0], train[1]
        keys = late.keys.copy()
        keys[0] = 2**23
        bad = Batch(keys, late.offsets, late.labels)
        dnn = SimpleDNN(n_slots=4, seed=0)
        before = [p.copy() for p in dnn.model.mlp.parameters()]
        with pytest.raises(KeyDomainError, match="SimpleDNN.fit"):
            dnn.fit([ok, bad])
        assert dnn.n_embedding_params == 0
        after = dnn.model.mlp.parameters()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_spec_declares_the_store_key_domain(self):
        assert SimpleDNN().model.spec.n_sparse == KEY_DOMAIN_CAP

    @pytest.mark.parametrize("key", [KEY_DOMAIN_CAP - 1, KEY_DOMAIN_CAP])
    def test_the_key_domain_boundary(self, data, key):
        """The largest key below the cap trains; the cap is refused."""
        train, _ = data
        keys = train[0].keys.copy()
        keys[0] = key
        batch = Batch(keys, train[0].offsets, train[0].labels)
        dnn = SimpleDNN(n_slots=4, seed=0)
        if key < KEY_DOMAIN_CAP:
            dnn.fit([batch])
            assert dnn.n_embedding_params == np.unique(keys).size
        else:
            with pytest.raises(KeyDomainError, match=f"holds key {key}"):
                dnn.fit([batch])
            assert dnn.n_embedding_params == 0

    def test_a_refused_fit_leaves_nothing_behind(self, data):
        """After a refusal, fitting the good batches gives exactly the
        model a fresh trainer fits from them."""
        train, test = data
        keys = train[1].keys.copy()
        keys[-1] = 2**23
        bad = Batch(keys, train[1].offsets, train[1].labels)
        refused = SimpleDNN(n_slots=4, seed=0)
        with pytest.raises(KeyDomainError):
            refused.fit([train[0], bad], epochs=2)
        refused.fit(train[:2])
        fresh = SimpleDNN(n_slots=4, seed=0)
        fresh.fit(train[:2])
        assert np.array_equal(refused.predict_proba(test), fresh.predict_proba(test))
