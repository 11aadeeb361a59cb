"""The reference stores — the reference trainer's ``FlatStore`` and the
Algorithm-2 HBM tables kept as oracles in ``tests/hbm_oracles.py`` —
share one batch-first key→value surface: ``get_batch`` / ``put_batch`` /
``contains`` / ``transform`` / ``items`` over ``uint64`` key arrays.
(The production tiers speak plan-driven APIs of their own: ``MemPS`` /
``CombinedCache`` rows, ``SSDPS.load`` / ``dump``, dense HBM staging.)"""

import numpy as np
import pytest

from hbm_oracles import DistributedHashTable, HashTable
from repro.core.trainer import ReferenceTrainer
from repro.store import FlatStore

BATCH_SURFACE = ("get_batch", "put_batch", "contains", "transform", "items")


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_of(n, dim=2, base=0.0):
    return (np.arange(n * dim, dtype=np.float32).reshape(n, dim) + base)


ALL_STORES = [
    lambda: HashTable(64, 2),
    lambda: DistributedHashTable(2, 64, 2),
    # the same stores off their easy path: a one-GPU fabric, an odd GPU
    # count, a slab that has to grow on its first put, a table the
    # roundtrip fills to exact capacity
    lambda: DistributedHashTable(1, 64, 2),
    lambda: DistributedHashTable(3, 64, 2),
    lambda: FlatStore(2, capacity=2),
    lambda: HashTable(3, 2),
    lambda: FlatStore(2),
    # direct-addressed, as the reference trainer builds it
    lambda: FlatStore(2, key_domain=128),
    lambda: FlatStore(2, capacity=2, key_domain=128),
]


@pytest.mark.parametrize("make", ALL_STORES)
def test_conforms_to_protocol(make):
    store = make()
    assert all(callable(getattr(store, name, None)) for name in BATCH_SURFACE)


@pytest.mark.parametrize("make", ALL_STORES)
def test_roundtrip_through_protocol(make):
    """put → get → contains → transform → items behave uniformly."""
    store = make()
    keys = keys_of([3, 11, 42])
    values = vals_of(3)
    fk, fv = store.put_batch(keys, values)
    assert fk.size == 0 and fv.shape[1] == 2  # nothing evicted at this size

    got, found = store.get_batch(keys)
    assert found.all()
    assert np.array_equal(got, values)

    mask = store.contains(keys_of([11, 7]))
    assert mask.tolist() == [True, False]

    store.transform(keys, lambda v: v + 1.0)
    got, found = store.get_batch(keys)
    assert found.all()
    assert np.array_equal(got, values + 1.0)

    ik, iv = store.items()
    assert ik.tolist() == [3, 11, 42]  # sorted by key
    assert np.array_equal(iv, values + 1.0)


@pytest.mark.parametrize("make", ALL_STORES)
def test_get_batch_zero_fills_missing(make):
    store = make()
    store.put_batch(keys_of([1]), vals_of(1, base=5.0))
    got, found = store.get_batch(keys_of([2, 1]))
    assert found.tolist() == [False, True]
    assert (got[0] == 0.0).all()


@pytest.mark.parametrize("make", ALL_STORES)
def test_transform_absent_raises(make):
    store = make()
    store.put_batch(keys_of([1]), vals_of(1))
    with pytest.raises(KeyError):
        store.transform(keys_of([1, 99]), lambda v: v)


class TestFlatStore:
    def test_key_domain_addresses_directly(self):
        assert FlatStore(2, key_domain=128)._index.hash_free
        assert not FlatStore(2)._index.hash_free

    def test_reference_store_is_direct_addressed(self, tiny_spec, small_config):
        """``ReferenceTrainer`` hands its store the spec's ``n_sparse``, so
        its index addresses keys directly like every production index."""
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=64)
        ref.train_round()
        assert ref._store._index.hash_free
        keys, _ = ref._store.items()
        assert keys.size and np.all(keys[:-1] < keys[1:])

    def test_grows_unbounded(self):
        store = FlatStore(3, capacity=4)
        n = 10_000
        keys = np.arange(n, dtype=np.uint64)
        values = np.random.default_rng(0).normal(size=(n, 3)).astype(np.float32)
        store.put_batch(keys, values)
        assert len(store) == n
        got, found = store.get_batch(keys)
        assert found.all()
        assert np.array_equal(got, values)

    def test_overwrite_in_place(self):
        store = FlatStore(2)
        store.put_batch(keys_of([1, 2]), vals_of(2))
        store.put_batch(keys_of([2]), vals_of(1, base=100.0))
        got, _ = store.get_batch(keys_of([2]))
        assert np.array_equal(got[0], vals_of(1, base=100.0)[0])
        assert len(store) == 2

    def test_never_flushes(self):
        store = FlatStore(1, capacity=2)
        for start in range(0, 400, 100):
            keys = np.arange(start, start + 100, dtype=np.uint64)
            fk, _ = store.put_batch(keys, vals_of(100, dim=1))
            assert fk.size == 0
        assert len(store) == 400
