"""Tests for the modulo partition policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hbm.partition import ModuloPartitioner, bucket_order
from repro.utils.keys import mix_hash


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

    def test_salts_give_independent_partitions(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = ModuloPartitioner(4, salt=1).part_of(keys)
        b = ModuloPartitioner(4, salt=2).part_of(keys)
        assert not np.array_equal(a, b)

    def test_balance_on_sequential_keys(self):
        """Hashed modulo balances even banded/sequential key spaces."""
        p = ModuloPartitioner(8)
        parts = p.part_of(np.arange(80_000, dtype=np.uint64))
        counts = np.bincount(parts, minlength=8)
        assert counts.max() / counts.min() < 1.1

    def test_single_part_gets_everything(self):
        p = ModuloPartitioner(1)
        assert np.all(p.part_of(np.arange(50, dtype=np.uint64)) == 0)

    @pytest.mark.parametrize(
        "n_parts, dtype", [(1, np.uint8), (5, np.uint8), (256, np.uint8), (300, np.uint16)]
    )
    def test_direct_and_tabled_paths_agree(self, n_parts, dtype):
        """A key stream that crosses the table-build threshold midway:
        the batches hashed directly and the ones gathered from the bucket
        table give the hashed modulo, in the same narrow dtype."""
        p = ModuloPartitioner(n_parts, salt=3)
        rng = np.random.default_rng(n_parts)
        tabled = []
        for _ in range(12):
            keys = rng.integers(0, 4000, 500).astype(np.uint64)
            parts = p.part_of(keys)
            tabled.append(p._table is not None)
            assert parts.dtype == dtype
            expected = mix_hash(keys, seed=3) % np.uint64(n_parts)
            assert parts.tolist() == expected.tolist()
        assert tabled[0] is False and tabled[-1] is True
        assert p._table.dtype == dtype


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
    uint8 -> uint16 boundary of the narrow sort key, for int64 ids and
    for the narrow ids ``part_of`` returns: bucket ``b`` is
    ``flatnonzero(parts == b)`` — ascending original position."""
    n_parts, ids = case
    for dtype in (np.int64, np.min_scalar_type(n_parts - 1)):
        parts = np.array(ids, dtype=dtype)
        order, bounds = bucket_order(parts, n_parts)
        assert order.dtype == np.int64 and bounds.shape == (n_parts + 1,)
        for b in range(n_parts):
            assert np.array_equal(
                order[bounds[b] : bounds[b + 1]], np.flatnonzero(parts == b)
            )
