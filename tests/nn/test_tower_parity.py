"""The workspace tower is bit-identical to the allocate-everything one.

``tests/nn_oracles.py`` keeps the pre-workspace ``Dense`` / ``ReLU`` /
embedding code; every comparison here is ``array_equal`` on float64 —
reused buffers, the float64 weight shadow and reshape-sum pooling may
change where results live, never a bit of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn_oracles import OracleEmbedding, OracleMLP
from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.errors import TierStateError
from repro.nn.embedding import EmbeddingLayer
from repro.nn.layers import MLP, Dense, ReLU
from repro.nn.loss import bce_with_logits, sigmoid
from repro.nn.model import CTRModel
from repro.nn.optim import DenseAdagrad


def _bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    in_dim=st.integers(1, 24),
    hidden=st.lists(st.integers(1, 40), min_size=0, max_size=3),
    row_counts=st.lists(st.integers(1, 70), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_mlp_steps_match_oracle(in_dim, hidden, row_counts, seed):
    """Several optimizer steps over batches that grow and shrink: logits,
    input gradient and every dW/db equal the oracle rebuilt from the
    current parameters (so a stale weight shadow cannot hide)."""
    rng = np.random.default_rng(seed)
    mlp = MLP(in_dim, tuple(hidden), seed=seed)
    opt = DenseAdagrad(lr=0.1)
    for n in row_counts:
        oracle = OracleMLP(mlp)
        x = rng.normal(size=(n, in_dim))
        want_logits = oracle.forward(x)
        got_logits = mlp.forward(x)
        assert _bits(got_logits, want_logits)
        grad = rng.normal(size=n)
        assert _bits(mlp.backward(grad), oracle.backward(grad))
        for got, want in zip(mlp.gradients(), oracle.gradients()):
            assert _bits(got, want)
        opt.step(
            mlp.parameters(), [g.astype(np.float32) for g in mlp.gradients()]
        )


def test_inference_forward_equals_training_forward_and_owns_its_output():
    rng = np.random.default_rng(0)
    mlp = MLP(6, (9, 5), seed=3)
    x = rng.normal(size=(11, 6))
    held = mlp.forward(x, training=False)
    snapshot = held.copy()
    assert _bits(mlp.forward(x), snapshot)
    mlp.forward(rng.normal(size=(11, 6)))  # overwrites workspaces only
    assert _bits(held, snapshot)


def test_weight_write_through_W_reaches_the_next_forward():
    d = Dense(3, 2, seed=0)
    x = np.ones((4, 3))
    before = d.forward(x).copy()
    d.W[0, 0] += 1.0
    assert _bits(d.forward(x), x @ d.W.astype(np.float64) + d.b)
    assert not np.array_equal(d.forward(x), before)


@pytest.mark.parametrize("layer", [Dense(2, 2), ReLU(), EmbeddingLayer(1, 2)])
def test_backward_before_forward_is_a_typed_error(layer):
    args = (np.zeros((1, 2)),) if not isinstance(layer, EmbeddingLayer) else (
        np.zeros((1, 2)),
        np.zeros(1, dtype=np.int64),
        1,
    )
    with pytest.raises(TierStateError, match="backward called before forward"):
        layer.backward(*args)


def _ragged_batch(rng, n_slots, n_rows, n_keys):
    lengths = n_slots * rng.integers(0, 4, size=n_rows)
    keys = rng.integers(0, n_keys, size=int(lengths.sum())).astype(np.uint64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return Batch(keys, offsets, np.zeros(n_rows, dtype=np.float32))


@settings(max_examples=40, deadline=None)
@given(
    n_slots=st.integers(1, 4),
    dim=st.integers(1, 6),
    per_slot=st.integers(0, 3),
    row_counts=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_embedding_matches_oracle(n_slots, dim, per_slot, row_counts, seed):
    """Uniform rows (reshape-sum pooling; ``per_slot`` 0 = ragged rows,
    the bincount path) over batches of changing size."""
    rng = np.random.default_rng(seed)
    layer = EmbeddingLayer(n_slots, dim)
    oracle = OracleEmbedding(n_slots, dim)
    n_keys = 50
    for n in row_counts:
        if per_slot:
            width = n_slots * per_slot
            keys = rng.integers(0, n_keys, size=n * width).astype(np.uint64)
            batch = Batch(
                keys, np.arange(n + 1) * width, np.zeros(n, dtype=np.float32)
            )
        else:
            batch = _ragged_batch(rng, n_slots, n, n_keys)
        uniq = batch.unique_keys()
        emb = rng.normal(size=(uniq.size, dim)).astype(np.float32)
        want = oracle.forward(batch, uniq, emb)
        assert _bits(layer.forward(batch, uniq, emb), want)
        assert _bits(layer.forward(batch, uniq, emb, training=False), want)
        g = rng.normal(size=want.shape)
        got = layer.backward(g, uniq.searchsorted(batch.keys), uniq.size)
        assert _bits(got, oracle.backward(g))


def test_predict_between_forward_and_backward_does_not_alias():
    """A 2048-row ``predict_proba`` lands between a 128-row training
    forward and its backward — twice, so the second predict finds every
    buffer already large enough to be tempted to reuse it."""
    spec = ModelSpec(
        name="m",
        nonzeros_per_example=8,
        n_sparse=3_000,
        n_dense=10,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=4,
        hidden_layers=(16, 8),
        n_slots=4,
    )
    gen = CTRDataGenerator(spec, seed=1)
    rng = np.random.default_rng(2)
    model = CTRModel(spec, seed=5)
    table = rng.normal(size=(spec.n_sparse, 4)).astype(np.float32)
    big = gen.batch(99, 2048)
    big_keys = big.unique_keys()
    big_emb = table[big_keys.astype(np.int64)]
    for step in range(2):
        mb = gen.batch(step, 128)
        keys = mb.unique_keys()
        emb = table[keys.astype(np.int64)]
        o_emb = OracleEmbedding(spec.n_slots, spec.embedding_dim)
        o_mlp = OracleMLP(model.mlp)
        want_logits = o_mlp.forward(o_emb.forward(mb, keys, emb))
        (_,), _, grad_logit = bce_with_logits(want_logits, mb.labels)
        want_sparse = o_emb.backward(o_mlp.backward(grad_logit))
        want_proba = sigmoid(
            o_mlp.forward(o_emb.forward(big, big_keys, big_emb))
        )

        idx = keys.searchsorted(mb.keys)
        logits = model.mlp.forward(
            model.embedding.pool(emb, idx, mb.row_lengths())
        )
        assert _bits(logits, want_logits)
        assert _bits(model.predict_proba(big, big_keys, big_emb), want_proba)
        sparse = model.embedding.backward(
            model.mlp.backward(grad_logit), idx, keys.size
        )
        assert _bits(sparse, want_sparse)
        for got, want in zip(model.mlp.gradients(), o_mlp.gradients()):
            assert _bits(got, want)


def test_relu_matches_where_on_special_values():
    x = np.array(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5]
    )
    want = np.where(x > 0, x, 0.0)
    for training in (True, False):
        got = ReLU().forward(x.copy(), training=training)
        assert _bits(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
