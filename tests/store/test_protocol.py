"""The reference stores — the reference trainer's ``FlatStore`` and the
Algorithm-2 HBM tables kept as oracles in ``tests/hbm_oracles.py`` —
share one batch-first key→value surface: ``get_batch`` / ``put_batch`` /
``contains`` / ``items`` over ``uint64`` key arrays.
(The production tiers speak plan-driven APIs of their own: ``MemPS`` /
``CombinedCache`` rows, ``SSDPS.load`` / ``dump``, dense HBM staging.)"""

import numpy as np
import pytest

from hbm_oracles import DistributedHashTable, HashTable
from repro.core.trainer import ReferenceTrainer
from repro.store import FlatStore

BATCH_SURFACE = ("get_batch", "put_batch", "contains", "items")


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_of(n, dim=2, base=0.0):
    return (np.arange(n * dim, dtype=np.float32).reshape(n, dim) + base)


def read_far_first(store):
    """``store`` after a miss on a far key: reads grow the index too."""
    assert not store.contains(keys_of([5_000])).any()
    return store


ALL_STORES = [
    lambda: HashTable(64, 2),
    lambda: DistributedHashTable(2, 64, 2),
    # the same stores off their easy path: a one-GPU fabric, an odd GPU
    # count, a slab that has to grow on its first put, a table the
    # roundtrip fills to exact capacity, an index a read already grew
    lambda: DistributedHashTable(1, 64, 2),
    lambda: DistributedHashTable(3, 64, 2),
    lambda: FlatStore(2, capacity=2),
    lambda: HashTable(3, 2),
    lambda: FlatStore(2),
    lambda: read_far_first(FlatStore(2)),
    lambda: read_far_first(FlatStore(2, capacity=2)),
]


@pytest.mark.parametrize("make", ALL_STORES)
def test_conforms_to_protocol(make):
    store = make()
    assert all(callable(getattr(store, name, None)) for name in BATCH_SURFACE)


@pytest.mark.parametrize("make", ALL_STORES)
def test_roundtrip_through_protocol(make):
    """put → get → contains → overwrite → items behave uniformly."""
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

    store.put_batch(keys, values + 1.0)
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


class TestFlatStore:
    def test_reference_store_is_direct_addressed(self, tiny_spec, small_config):
        """The reference trainer's index covers exactly the key range it
        has seen (one doubling step past its largest key at most), and
        its items come back in key order with no sort."""
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=64)
        ref.train_round()
        keys, _ = ref._store.items()
        assert keys.size and np.all(keys[:-1] < keys[1:])
        assert ref._store._index._payload.size <= max(1024, 2 * int(keys[-1]) + 2)

    def test_repeated_key_is_refused_untouched(self):
        store = FlatStore(2)
        store.put_batch(keys_of([1]), vals_of(1))
        with pytest.raises(ValueError, match="unique"):
            store.put_batch(keys_of([3, 3, 5]), vals_of(3, base=7.0))
        assert len(store) == 1
        assert store.items()[0].tolist() == [1]

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

    def test_get_or_init_initializes_absent_keys_once(self):
        """Present keys come back as stored; ``init`` sees the absent
        ones only, in request order, and its rows are stored — a second
        lookup calls it with nothing new."""
        store = FlatStore(2)
        store.put_batch(keys_of([4]), vals_of(1, base=9.0))
        seen = []

        def init(keys):
            seen.append(keys.tolist())
            return np.repeat(keys[:, None].astype(np.float32), 2, axis=1)

        got = store.get_or_init(keys_of([7, 4, 2]), init)
        assert seen == [[7, 2]]
        assert got.tolist() == [[7.0, 7.0], [9.0, 10.0], [2.0, 2.0]]
        assert np.array_equal(store.get_or_init(keys_of([2, 7]), init), got[[2, 0]])
        assert seen == [[7, 2]]
        assert len(store) == 3
