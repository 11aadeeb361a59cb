"""Tests for the CSR batch container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import Batch


def make_batch(rows, labels=None):
    keys = np.array([k for r in rows for k in r], dtype=np.uint64)
    offsets = np.cumsum([0] + [len(r) for r in rows])
    labels = labels if labels is not None else [0.0] * len(rows)
    return Batch(keys, offsets, np.array(labels, dtype=np.float32))


def joined(shards):
    """``(keys, offsets, labels)`` of the shards laid end to end."""
    lengths = np.concatenate([s.row_lengths() for s in shards])
    return (
        np.concatenate([s.keys for s in shards]),
        np.concatenate(([0], np.cumsum(lengths))),
        np.concatenate([s.labels for s in shards]),
    )


class TestBatchValidation:
    def test_valid_batch(self):
        b = make_batch([[1, 2], [3]])
        assert b.n_examples == 2
        assert b.n_nonzeros == 3

    def test_bad_offsets_start(self):
        with pytest.raises(ValueError):
            Batch(np.array([1], dtype=np.uint64), np.array([1, 1]), np.array([0.0]))

    def test_bad_offsets_end(self):
        with pytest.raises(ValueError):
            Batch(np.array([1], dtype=np.uint64), np.array([0, 2]), np.array([0.0]))

    def test_decreasing_offsets(self):
        with pytest.raises(ValueError):
            Batch(
                np.array([1, 2], dtype=np.uint64),
                np.array([0, 2, 1, 2]),
                np.array([0.0, 1.0, 0.0]),
            )

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Batch(np.array([1], dtype=np.uint64), np.array([0, 1]), np.array([0.0, 1.0]))


class TestUniqueKeys:
    def test_dedup_and_sort(self):
        b = make_batch([[5, 1], [5, 3]])
        assert b.unique_keys().tolist() == [1, 3, 5]

    def test_empty_rows_ok(self):
        b = make_batch([[], [7], []])
        assert b.unique_keys().tolist() == [7]


class TestShard:
    def test_partition_preserves_everything(self):
        b = make_batch([[i, i + 1] for i in range(10)], labels=list(range(10)))
        shards = b.shard(3)
        assert sum(s.n_examples for s in shards) == 10
        keys, _, labels = joined(shards)
        assert np.array_equal(keys, b.keys)
        assert np.array_equal(labels, b.labels)

    def test_balanced_sizes(self):
        b = make_batch([[1]] * 10)
        sizes = [s.n_examples for s in b.shard(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_examples(self):
        b = make_batch([[1], [2]])
        shards = b.shard(5)
        assert len(shards) == 5
        assert sum(s.n_examples for s in shards) == 2

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            make_batch([[1]]).shard(0)


class TestRawLogBytes:
    def test_scales_with_examples_and_nonzeros(self):
        small = make_batch([[1]])
        big = make_batch([[1, 2, 3], [4, 5, 6]])
        assert big.nbytes_raw_log() > small.nbytes_raw_log()


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_shard_concat_identity_property(rows, n_shards):
    b = make_batch(rows, labels=list(range(len(rows))))
    keys, offsets, labels = joined(b.shard(n_shards))
    assert np.array_equal(keys, b.keys)
    assert np.array_equal(offsets, b.offsets)
    assert np.array_equal(labels, b.labels)
