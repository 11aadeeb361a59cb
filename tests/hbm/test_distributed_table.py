"""Tests for the multi-GPU distributed hash table oracle (Algorithm 2)."""

import numpy as np
import pytest

from hbm_oracles import DistributedHashTable


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


@pytest.fixture
def table():
    return DistributedHashTable(4, capacity_per_gpu=1000, value_dim=2)


class TestInsertGet:
    def test_roundtrip_across_gpus(self, table):
        keys = keys_of(range(100))
        vals = np.arange(200, dtype=np.float32).reshape(100, 2)
        table.insert(keys, vals)
        got, _ = table.get(keys, source_gpu=0)
        assert np.array_equal(got, vals)

    def test_partitioned_non_overlapping(self, table):
        keys = keys_of(range(100))
        vals = np.zeros((100, 2), dtype=np.float32)
        table.insert(keys, vals)
        assert sum(t.size for t in table.tables) == 100
        assert table.size == 100

    def test_get_with_duplicate_request_keys(self, table):
        keys = keys_of([1, 2, 3])
        vals = np.array([[1, 1], [2, 2], [3, 3]], dtype=np.float32)
        table.insert(keys, vals)
        got, _ = table.get(keys_of([2, 2, 1]), source_gpu=1)
        assert got.tolist() == [[2, 2], [2, 2], [1, 1]]

    def test_missing_key_raises(self, table):
        table.insert(keys_of([1]), np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(KeyError):
            table.get(keys_of([999]))

    def test_invalid_gpu(self, table):
        table.insert(keys_of([1]), np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(IndexError):
            table.get(keys_of([1]), source_gpu=7)

    def test_nvlink_traffic_only_for_remote_partitions(self, table):
        keys = keys_of(range(64))
        table.insert(keys, np.zeros((64, 2), dtype=np.float32))
        before = table.nvlink.bytes_moved
        # Request only keys owned by GPU 2, from GPU 2: no NVLink traffic.
        own = keys[table.partitioner.part_of(keys) == 2]
        table.get(own, source_gpu=2)
        assert table.nvlink.bytes_moved == before
        table.get(own, source_gpu=0)
        assert table.nvlink.bytes_moved > before


class TestAccumulate:
    def test_routes_to_owners(self, table):
        keys = keys_of(range(50))
        table.insert(keys, np.zeros((50, 2), dtype=np.float32))
        deltas = np.ones((50, 2), dtype=np.float32)
        table.accumulate(keys, deltas, source_gpu=0)
        got, _ = table.get(keys)
        assert np.all(got == 1.0)

    def test_duplicates_sum(self, table):
        table.insert(keys_of([5]), np.zeros((1, 2), dtype=np.float32))
        table.accumulate(
            keys_of([5, 5, 5]), np.ones((3, 2), dtype=np.float32), source_gpu=1
        )
        got, _ = table.get(keys_of([5]))
        assert np.all(got == 3.0)

    def test_upsert(self, table):
        table.accumulate(
            keys_of([10, 20]), np.ones((2, 2), dtype=np.float32), upsert=True
        )
        got, _ = table.get(keys_of([10, 20]))
        assert np.all(got == 1.0)

    def test_simulated_time_positive(self, table):
        keys = keys_of(range(20))
        table.insert(keys, np.zeros((20, 2), dtype=np.float32))
        t = table.accumulate(keys, np.ones((20, 2), dtype=np.float32))
        assert t > 0


class TestTransformItemsClear:
    def test_transform_all_partitions(self, table):
        keys = keys_of(range(40))
        table.insert(keys, np.ones((40, 2), dtype=np.float32))
        table.transform(keys, lambda v: v * 3)
        got, _ = table.get(keys)
        assert np.all(got == 3.0)

    def test_transform_absent_key_raises(self, table):
        table.insert(keys_of([1]), np.ones((1, 2), dtype=np.float32))
        with pytest.raises(KeyError):
            table.transform(keys_of([1, 99]), lambda v: v)

    def test_transform_duplicate_keys_rejected(self, table):
        keys = keys_of(range(10))
        table.insert(keys, np.ones((10, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="unique"):
            table.transform(keys_of([3, 3, 5]), lambda v: v * 2)
        got, _ = table.get(keys)
        assert np.all(got == 1.0)

    def test_items_globally_sorted(self, table):
        keys = keys_of([44, 2, 93, 17])
        table.insert(keys, np.zeros((4, 2), dtype=np.float32))
        k, v = table.items()
        assert k.tolist() == [2, 17, 44, 93]
        assert v.shape == (4, 2)

    def test_items_empty(self, table):
        k, v = table.items()
        assert k.size == 0
        assert v.shape == (0, 2)

    def test_clear(self, table):
        table.insert(keys_of([1, 2]), np.zeros((2, 2), dtype=np.float32))
        table.clear()
        assert table.size == 0

    def test_contains(self, table):
        table.insert(keys_of([3, 7]), np.zeros((2, 2), dtype=np.float32))
        mask = table.contains(keys_of([3, 4, 7]))
        assert mask.tolist() == [True, False, True]


class TestEquivalenceWithSingleTable:
    def test_matches_one_gpu_table(self):
        """N-GPU distributed semantics == a single hash table."""
        from hbm_oracles import HashTable

        multi = DistributedHashTable(4, 500, 1)
        single = HashTable(2000, 1)
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 10_000, 300).astype(np.uint64))
        vals = rng.normal(size=(keys.size, 1)).astype(np.float32)
        multi.insert(keys, vals)
        single.insert(keys, vals)
        deltas = rng.normal(size=(keys.size, 1)).astype(np.float32)
        multi.accumulate(keys, deltas)
        single.accumulate(keys, deltas)
        mk, mv = multi.items()
        sk, sv = single.items()
        assert np.array_equal(mk, sk)
        assert np.allclose(mv, sv)
