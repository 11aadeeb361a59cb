"""One pass per sync round: ``CTRModel.train_minibatch`` over several
workers' shards returns, per worker, the loss, sparse gradient and dense
gradients a separate per-worker call computes — bit for bit.

The per-worker oracle is ``nn_oracles.oracle_step``.  Shards hold
multiples of 4 examples, as the benchmark workloads' do (512, 1536, 128):
the one forward over every worker's rows is bit-equal to per-worker
forwards where the BLAS computes a row of a product independently of the
rows around it, which OpenBLAS does for these towers at that granularity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn_oracles import oracle_step
from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.model import CTRModel, Shard

#: the benchmark workloads' towers: (n_slots, embedding_dim, hidden)
TOWERS = [(4, 4, (16, 8)), (4, 16, (256, 128, 64))]


def _spec(n_slots, dim, hidden):
    return ModelSpec(
        name="one-pass",
        nonzeros_per_example=2 * n_slots,
        n_sparse=1_000,
        n_dense=10,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=dim,
        hidden_layers=hidden,
        n_slots=n_slots,
    )


def _shard(rng, n, n_slots, ragged, n_keys):
    """``n`` examples: 2 keys per slot each, or a ragged layout (0–3 per
    slot, empty rows included) that pools through bins."""
    per_row = n_slots * (rng.integers(0, 4, size=n) if ragged else np.full(n, 2))
    keys = rng.integers(0, n_keys, size=int(per_row.sum())).astype(np.uint64)
    offsets = np.concatenate([[0], np.cumsum(per_row)])
    labels = (rng.random(n) < 0.3).astype(np.float32)
    return Batch(keys, offsets, labels)


@settings(max_examples=30, deadline=None)
@given(
    tower=st.sampled_from(TOWERS),
    quarter_sizes=st.lists(st.integers(0, 24), min_size=1, max_size=8),
    ragged=st.lists(st.booleans(), min_size=8, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_stacked_step_equals_per_worker_calls(tower, quarter_sizes, ragged, seed):
    rng = np.random.default_rng(seed)
    n_slots, dim, hidden = tower
    model = CTRModel(_spec(n_slots, dim, hidden), seed=seed)
    n_keys = 300
    # The round array: one value row (embedding, then optimizer state)
    # per key, the keys' rows shuffled so codes are not the keys.
    table = rng.normal(size=(n_keys, 2 * dim)).astype(np.float32)
    code_of = rng.permutation(n_keys)
    batches = [
        _shard(rng, 4 * q, n_slots, ragged[w], n_keys)
        for w, q in enumerate(quarter_sizes)
    ]
    workers = [b for b in batches if b.n_examples]
    shards = []
    for b in workers:
        keys = b.unique_keys()
        idx = keys.searchsorted(b.keys)
        shards.append(Shard(b, keys, idx, code_of[keys.astype(np.int64)][idx]))
    results = model.train_minibatch(table, shards)
    assert len(results) == len(workers)
    for shard, got in zip(shards, results):
        emb = table[code_of[shard.keys.astype(np.int64)], :dim]
        loss, sparse, dense = oracle_step(model, shard.batch, shard.keys, emb)
        assert got.loss == loss
        assert got.n_examples == shard.batch.n_examples
        assert np.array_equal(got.sparse_grad.keys, shard.keys)
        assert got.sparse_grad.grads.dtype == sparse.dtype
        assert np.array_equal(got.sparse_grad.grads, sparse)
        assert len(got.dense_grads) == len(dense)
        for a, b in zip(got.dense_grads, dense):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_no_shards_is_no_step():
    model = CTRModel(_spec(*TOWERS[0]))
    assert model.train_minibatch(np.zeros((1, 8), np.float32), []) == []


def test_an_empty_shard_is_refused():
    rng = np.random.default_rng(0)
    model = CTRModel(_spec(*TOWERS[0]))
    table = rng.normal(size=(300, 8)).astype(np.float32)
    empty = Batch(np.zeros(0, np.uint64), [0], np.zeros(0, np.float32))
    shards = [Shard.of(_shard(rng, 4, 4, False, 300)), Shard.of(empty)]
    with pytest.raises(ValueError, match="empty"):
        model.train_minibatch(table, shards)
