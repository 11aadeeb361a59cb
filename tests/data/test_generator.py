"""Tests for the synthetic CTR data generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_oracles import ReferenceCTRDataGenerator
from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator, zipf_probabilities


@pytest.fixture
def spec():
    return ModelSpec(
        name="gen-test",
        nonzeros_per_example=8,
        n_sparse=10_000,
        n_dense=100,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=4,
        n_slots=4,
    )


class TestZipfProbabilities:
    def test_sums_to_one(self):
        p = zipf_probabilities(1000)
        assert p.sum() == pytest.approx(1.0)

    def test_decreasing(self):
        p = zipf_probabilities(100)
        assert np.all(np.diff(p) < 0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)


class TestGenerator:
    def test_batch_shape(self, spec):
        gen = CTRDataGenerator(spec, seed=0)
        b = gen.batch(0, 100)
        assert b.n_examples == 100
        assert b.n_nonzeros == 100 * spec.nonzeros_per_example

    def test_deterministic_per_index(self, spec):
        g1 = CTRDataGenerator(spec, seed=3)
        g2 = CTRDataGenerator(spec, seed=3)
        a, b = g1.batch(5, 64), g2.batch(5, 64)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.labels, b.labels)

    def test_different_indices_differ(self, spec):
        gen = CTRDataGenerator(spec, seed=3)
        assert not np.array_equal(gen.batch(0, 64).keys, gen.batch(1, 64).keys)

    def test_different_seeds_differ(self, spec):
        a = CTRDataGenerator(spec, seed=1).batch(0, 64)
        b = CTRDataGenerator(spec, seed=2).batch(0, 64)
        assert not np.array_equal(a.keys, b.keys)

    def test_keys_within_key_space(self, spec):
        b = CTRDataGenerator(spec, seed=0).batch(0, 500)
        assert int(b.keys.max()) < spec.n_sparse

    def test_keys_respect_slot_bands(self, spec):
        b = CTRDataGenerator(spec, seed=0).batch(0, 200)
        vocab = spec.n_sparse // spec.n_slots
        ids_per_slot = spec.nonzeros_per_example // spec.n_slots
        keys = b.keys.reshape(200, spec.n_slots, ids_per_slot)
        for s in range(spec.n_slots):
            band = keys[:, s, :].astype(np.int64)
            assert band.min() >= s * vocab
            assert band.max() < (s + 1) * vocab

    def test_labels_binary_and_balanced(self, spec):
        b = CTRDataGenerator(spec, seed=0).batch(0, 2000)
        assert set(np.unique(b.labels)) <= {0.0, 1.0}
        rate = float(b.labels.mean())
        assert 0.3 < rate < 0.7  # median-centering keeps classes balanced

    def test_popularity_skew(self, spec):
        """Hot keys dominate: top 1% of keys covers far more than 1% of
        draws (this is what makes the MEM-PS cache effective)."""
        b = CTRDataGenerator(spec, seed=0).batch(0, 2000)
        _, counts = np.unique(b.keys, return_counts=True)
        counts = np.sort(counts)[::-1]
        top = counts[: max(1, counts.size // 100)].sum()
        assert top / counts.sum() > 0.05

    def test_batches_generator_yields_n(self, spec):
        gen = CTRDataGenerator(spec, seed=0)
        assert len(list(gen.batches(3, 16))) == 3

    def test_signal_is_learnable(self, spec):
        """A trivial per-key frequency model must beat random AUC —
        otherwise the planted signal is broken."""
        from repro.nn.metrics import auc

        gen = CTRDataGenerator(spec, seed=0)
        train = gen.batch(0, 4000)
        test = gen.batch(1, 4000)
        # Score = sum of per-key empirical log-odds from train.
        keys, inv = np.unique(train.keys, return_inverse=True)
        rows = np.repeat(np.arange(train.n_examples), train.row_lengths())
        pos = np.zeros(keys.size)
        tot = np.zeros(keys.size)
        np.add.at(pos, inv, train.labels[rows])
        np.add.at(tot, inv, 1.0)
        w = (pos + 1) / (tot + 2) - 0.5
        idx = np.searchsorted(keys, test.keys)
        idx = np.clip(idx, 0, keys.size - 1)
        valid = keys[idx] == test.keys
        contrib = np.where(valid, w[idx], 0.0)
        test_rows = np.repeat(np.arange(test.n_examples), test.row_lengths())
        scores = np.zeros(test.n_examples)
        np.add.at(scores, test_rows, contrib)
        assert auc(test.labels, scores) > 0.55

    def test_invalid_exponent(self, spec):
        with pytest.raises(ValueError):
            CTRDataGenerator(spec, zipf_exponent=1.0)

    def test_invalid_batch_size(self, spec):
        with pytest.raises(ValueError):
            CTRDataGenerator(spec, seed=0).batch(0, 0)


def _spec(n_slots, ids_per_slot, n_sparse):
    return ModelSpec(
        name="gen-prop",
        nonzeros_per_example=n_slots * ids_per_slot,
        n_sparse=n_sparse,
        n_dense=100,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=4,
        n_slots=n_slots,
    )


def _assert_same_bytes(got: Batch, want: Batch):
    for name in ("keys", "offsets", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name


@given(
    n_slots=st.integers(1, 6),
    ids_per_slot=st.integers(1, 3),
    n_sparse=st.sampled_from([6, 5_000, 100_003, 3 << 40]),
    # 1.0001 overflows the rank power to inf for most draws; 2.0 rarely
    # leaves the head.
    zipf=st.sampled_from([1.0001, 1.01, 1.05, 1.3, 2.0]),
    n_examples=st.integers(1, 70),
    seed=st.integers(0, 2**16),
    index=st.integers(0, 2**20),
)
@settings(max_examples=150, deadline=None)
def test_batch_equals_per_slot_reference(
    n_slots, ids_per_slot, n_sparse, zipf, n_examples, seed, index
):
    """The one-sweep draw is the slot-by-slot draw byte for byte — the
    same RNG stream, the same float64 summation order — for row lengths
    from 1 (no pairs) up, odd and even example counts."""
    spec = _spec(n_slots, ids_per_slot, n_sparse)
    got = CTRDataGenerator(spec, seed=seed, zipf_exponent=zipf).batch(
        index, n_examples
    )
    want = ReferenceCTRDataGenerator(
        spec, seed=seed, zipf_exponent=zipf
    ).batch(index, n_examples)
    _assert_same_bytes(got, want)
    # ``batch`` skips the validating constructor; the validating
    # constructor must accept what it built, unchanged.
    _assert_same_bytes(Batch(got.keys, got.offsets, got.labels), got)


#: ``(n_slots, ids_per_slot, n_sparse), seed, zipf, index, n_examples``
#: -> SHA-256 over (dtype, bytes) of keys, offsets, labels — recorded on
#: the commit before the one-sweep draw, so production and the reference
#: above cannot drift together.  Every ``param_digest`` rests on this
#: stream (NumPy's PCG64 ``random`` / ``normal``).
PINNED_BATCHES = [
    (
        ((4, 2, 5_000), 3, 1.05, 5, 64),
        "7df9c935df336582e2b26fef51c41ac5570f03ae011a3a52c98990339a797762",
    ),
    (
        ((3, 3, 3 << 40), 0, 1.3, 2, 33),
        "5b776709fa979e9510d01d2786fd6e7d84cc3779af167a8f4925aa0d3f217d64",
    ),
    (
        ((1, 1, 1_000), 11, 2.0, 7, 7),
        "e07db625d819b567b8a4c3c105cdc09783db01d436f76e6f5dd0f82537366d75",
    ),
]


@pytest.mark.parametrize("case, digest", PINNED_BATCHES)
def test_batch_stream_is_pinned(case, digest):
    shape, seed, zipf, index, n_examples = case
    b = CTRDataGenerator(_spec(*shape), seed=seed, zipf_exponent=zipf).batch(
        index, n_examples
    )
    h = hashlib.sha256()
    for a in (b.keys, b.offsets, b.labels):
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    assert h.hexdigest() == digest
