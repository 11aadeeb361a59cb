"""Unit + property tests for the open-addressing hash table oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbm_oracles import HashTable


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_of(xs, dim=2):
    return np.array(xs, dtype=np.float32).reshape(-1, dim)


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HashTable(0, 1)

    def test_invalid_value_dim(self):
        with pytest.raises(ValueError):
            HashTable(10, 0)

    def test_invalid_load_factor(self):
        with pytest.raises(ValueError):
            HashTable(10, 1, load_factor=1.5)

    def test_slots_overprovisioned(self):
        t = HashTable(100, 1, load_factor=0.5)
        assert t.n_slots >= 200


class TestInsertGet:
    def test_roundtrip(self):
        t = HashTable(10, 2)
        t.insert(keys_of([1, 2, 3]), vals_of([[1, 1], [2, 2], [3, 3]]))
        vals, found = t.get(keys_of([2, 3, 1]))
        assert found.all()
        assert vals.tolist() == [[2, 2], [3, 3], [1, 1]]

    def test_missing_keys(self):
        t = HashTable(10, 1)
        t.insert(keys_of([1]), vals_of([[5]], dim=1))
        vals, found = t.get(keys_of([1, 99]))
        assert found.tolist() == [True, False]
        assert vals[1, 0] == 0.0

    def test_overwrite(self):
        t = HashTable(10, 1)
        t.insert(keys_of([7]), vals_of([[1]], dim=1))
        t.insert(keys_of([7]), vals_of([[2]], dim=1))
        vals, _ = t.get(keys_of([7]))
        assert vals[0, 0] == 2.0
        assert t.size == 1

    def test_empty_insert_and_get(self):
        t = HashTable(10, 1)
        t.insert(keys_of([]), np.zeros((0, 1), dtype=np.float32))
        vals, found = t.get(keys_of([]))
        assert vals.shape == (0, 1)
        assert found.size == 0

    def test_duplicate_insert_rejected(self):
        t = HashTable(10, 1)
        with pytest.raises(ValueError, match="unique"):
            t.insert(keys_of([1, 1]), vals_of([[1], [2]], dim=1))

    def test_capacity_enforced(self):
        t = HashTable(4, 1)
        with pytest.raises(RuntimeError, match="capacity"):
            t.insert(keys_of(range(5)), vals_of([[i] for i in range(5)], dim=1))

    def test_capacity_failure_leaves_table_unchanged(self):
        """A rejected insert must not mutate the table (no partial writes)."""
        t = HashTable(4, 1)
        t.insert(keys_of([1, 2, 3]), vals_of([[1], [2], [3]], dim=1))
        with pytest.raises(RuntimeError, match="capacity"):
            # 2 resident overwrites + 2 new keys: 3 + 2 > 4 must fail
            # before the overwrites of keys 1 and 2 are applied.
            t.insert(keys_of([1, 2, 8, 9]), vals_of([[10], [20], [80], [90]], dim=1))
        assert t.size == 3
        vals, found = t.get(keys_of([1, 2, 3, 8, 9]))
        assert found.tolist() == [True, True, True, False, False]
        assert vals[:3, 0].tolist() == [1.0, 2.0, 3.0]

    def test_capacity_counts_only_new_keys(self):
        """Overwrites of resident keys never count against capacity."""
        t = HashTable(3, 1)
        t.insert(keys_of([1, 2, 3]), vals_of([[1], [2], [3]], dim=1))
        t.insert(keys_of([1, 2, 3]), vals_of([[10], [20], [30]], dim=1))
        vals, _ = t.get(keys_of([1, 2, 3]))
        assert vals[:, 0].tolist() == [10.0, 20.0, 30.0]

    def test_fill_to_exact_capacity(self):
        t = HashTable(8, 1)
        t.insert(keys_of(range(8)), vals_of([[i] for i in range(8)], dim=1))
        assert t.size == 8
        _, found = t.get(keys_of(range(8)))
        assert found.all()

    def test_shape_mismatch(self):
        t = HashTable(4, 2)
        with pytest.raises(ValueError):
            t.insert(keys_of([1]), np.zeros((1, 3), dtype=np.float32))


class TestAccumulate:
    def test_sums_duplicates(self):
        t = HashTable(10, 1)
        t.insert(keys_of([1]), vals_of([[10]], dim=1))
        t.accumulate(keys_of([1, 1, 1]), vals_of([[1], [2], [3]], dim=1))
        vals, _ = t.get(keys_of([1]))
        assert vals[0, 0] == 16.0

    def test_absent_key_raises(self):
        t = HashTable(10, 1)
        with pytest.raises(KeyError):
            t.accumulate(keys_of([5]), vals_of([[1]], dim=1))

    def test_upsert_inserts_missing(self):
        t = HashTable(10, 1)
        t.insert(keys_of([1]), vals_of([[10]], dim=1))
        t.accumulate(keys_of([1, 2, 2]), vals_of([[1], [5], [5]], dim=1), upsert=True)
        vals, found = t.get(keys_of([1, 2]))
        assert found.all()
        assert vals[:, 0].tolist() == [11.0, 10.0]

    def test_empty_accumulate(self):
        t = HashTable(10, 1)
        t.accumulate(keys_of([]), np.zeros((0, 1), dtype=np.float32))


class TestTransform:
    def test_applies_function(self):
        t = HashTable(10, 1)
        t.insert(keys_of([1, 2]), vals_of([[1], [2]], dim=1))
        t.transform(keys_of([1, 2]), lambda v: v * 10)
        vals, _ = t.get(keys_of([1, 2]))
        assert vals[:, 0].tolist() == [10.0, 20.0]

    def test_absent_key_raises(self):
        t = HashTable(10, 1)
        with pytest.raises(KeyError):
            t.transform(keys_of([9]), lambda v: v)

    def test_duplicate_keys_rejected(self):
        """Duplicates would silently last-write-win; they must raise."""
        t = HashTable(10, 1)
        t.insert(keys_of([1, 2]), vals_of([[1], [2]], dim=1))
        with pytest.raises(ValueError, match="unique"):
            t.transform(keys_of([1, 1, 2]), lambda v: v + 1)
        vals, _ = t.get(keys_of([1, 2]))
        assert vals[:, 0].tolist() == [1.0, 2.0]


class TestItemsClear:
    def test_items_sorted(self):
        t = HashTable(10, 1)
        t.insert(keys_of([5, 1, 9]), vals_of([[5], [1], [9]], dim=1))
        k, v = t.items()
        assert k.tolist() == [1, 5, 9]
        assert v[:, 0].tolist() == [1.0, 5.0, 9.0]

    def test_clear(self):
        t = HashTable(10, 1)
        t.insert(keys_of([1]), vals_of([[1]], dim=1))
        t.clear()
        assert t.size == 0
        assert len(t) == 0
        assert 1 not in t

    def test_contains_dunder(self):
        t = HashTable(10, 1)
        t.insert(keys_of([3]), vals_of([[1]], dim=1))
        assert 3 in t
        assert 4 not in t


class TestCollisionStress:
    def test_dense_fill_with_adversarial_keys(self):
        """Keys spaced by the slot count maximize base-slot collisions."""
        t = HashTable(256, 1, load_factor=0.9)
        n = 250
        ks = keys_of([i * t.n_slots for i in range(n)])
        t.insert(ks, vals_of([[i] for i in range(n)], dim=1))
        vals, found = t.get(ks)
        assert found.all()
        assert np.array_equal(vals[:, 0], np.arange(n, dtype=np.float32))


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2**60),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_table_behaves_like_dict(mapping):
    t = HashTable(len(mapping), 1)
    ks = keys_of(list(mapping))
    vs = np.array([[v] for v in mapping.values()], dtype=np.float32)
    t.insert(ks, vs)
    got, found = t.get(ks)
    assert found.all()
    assert np.array_equal(got, vs)
    k2, v2 = t.items()
    assert set(k2.tolist()) == set(mapping)


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300),
)
@settings(max_examples=40, deadline=None)
def test_accumulate_matches_counter(key_stream):
    """Accumulating 1.0 per key occurrence == frequency counting."""
    from collections import Counter

    t = HashTable(501, 1)
    ks = keys_of(key_stream)
    ones = np.ones((len(key_stream), 1), dtype=np.float32)
    t.accumulate(ks, ones, upsert=True)
    counts = Counter(key_stream)
    got, found = t.get(keys_of(list(counts)))
    assert found.all()
    assert got[:, 0].tolist() == [float(counts[k]) for k in counts]
