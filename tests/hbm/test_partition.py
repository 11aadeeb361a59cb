"""Tests for the modulo partition policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hbm.partition import ModuloPartitioner, bucket_order


class TestPartitioner:
    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            ModuloPartitioner(0)

    def test_deterministic(self):
        p = ModuloPartitioner(4)
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(p.part_of(keys), p.part_of(keys))

    def test_in_range(self):
        p = ModuloPartitioner(7)
        parts = p.part_of(np.arange(1000, dtype=np.uint64))
        assert parts.min() >= 0 and parts.max() < 7

    def test_unhashed_is_plain_modulo(self):
        p = ModuloPartitioner(3, hashed=False)
        parts = p.part_of(np.array([0, 1, 2, 3, 4, 5], dtype=np.uint64))
        assert parts.tolist() == [0, 1, 2, 0, 1, 2]

    def test_salts_give_independent_partitions(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = ModuloPartitioner(4, salt=1).part_of(keys)
        b = ModuloPartitioner(4, salt=2).part_of(keys)
        assert not np.array_equal(a, b)

    def test_balance_on_sequential_keys(self):
        """Hashed modulo balances even banded/sequential key spaces."""
        p = ModuloPartitioner(8)
        counts = p.counts(np.arange(80_000, dtype=np.uint64))
        assert counts.max() / counts.min() < 1.1

    def test_single_part_gets_everything(self):
        p = ModuloPartitioner(1)
        assert np.all(p.part_of(np.arange(50, dtype=np.uint64)) == 0)


class TestSplit:
    def test_split_preserves_pairs(self):
        p = ModuloPartitioner(4)
        keys = np.arange(200, dtype=np.uint64)
        vals = np.arange(200, dtype=np.float32) * 2
        rebuilt = {}
        for k, v in p.split(keys, vals):
            for ki, vi in zip(k.tolist(), v.tolist()):
                rebuilt[ki] = vi
        assert rebuilt == {int(k): float(k) * 2 for k in keys}

    def test_split_routing_consistent_with_part_of(self):
        p = ModuloPartitioner(5)
        keys = np.arange(100, dtype=np.uint64)
        for b, (k,) in enumerate(p.split(keys)):
            assert np.all(p.part_of(k) == b)

    def test_split_multiple_arrays(self):
        p = ModuloPartitioner(2)
        keys = np.arange(10, dtype=np.uint64)
        a = np.arange(10)
        b = np.arange(10) * 10
        for k, ai, bi in p.split(keys, a, b):
            assert np.array_equal(ai * 10, bi)

    def test_empty_split(self):
        p = ModuloPartitioner(3)
        parts = p.split(np.array([], dtype=np.uint64))
        assert len(parts) == 3
        assert all(k.size == 0 for (k,) in parts)


@given(
    st.lists(st.integers(min_value=0, max_value=2**63), max_size=300),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=50, deadline=None)
def test_split_is_a_partition(keys, n_parts):
    p = ModuloPartitioner(n_parts)
    keys = np.array(keys, dtype=np.uint64)
    pieces = [k for (k,) in p.split(keys)]
    total = sum(k.size for k in pieces)
    assert total == keys.size
    merged = np.sort(np.concatenate(pieces)) if total else np.array([], dtype=np.uint64)
    assert np.array_equal(merged, np.sort(keys))


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n_parts: st.tuples(
            st.just(n_parts),
            st.lists(st.integers(min_value=0, max_value=n_parts - 1), max_size=400),
        )
    )
)
@example((256, [255, 0, 255, 128]))
@example((257, [256, 0, 255, 256, 1]))
@settings(max_examples=100, deadline=None)
def test_bucket_order_groups_like_flatnonzero(case):
    """The grouping primitive's contract, on both sides of the
    uint8 -> uint16 boundary of the narrow sort key: bucket ``b`` is
    ``flatnonzero(parts == b)`` — ascending original position."""
    n_parts, ids = case
    parts = np.array(ids, dtype=np.int64)
    order, bounds = bucket_order(parts, n_parts)
    assert order.dtype == np.int64 and bounds.shape == (n_parts + 1,)
    for b in range(n_parts):
        assert np.array_equal(
            order[bounds[b] : bounds[b + 1]], np.flatnonzero(parts == b)
        )
