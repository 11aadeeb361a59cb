"""Recorded-trace parity: slab caches vs the seed dict implementation.

The vectorized caches must be *sequential-equivalent*: identical eviction
order, flush pairs, hit/miss statistics, and final contents as the
original per-key implementation (kept in ``tests/cache_oracles.py``).
These tests replay deterministic recorded traces — single-key batches on
a skewed stream, MEM-PS-shaped resolve / pin / write / release cycles
under memory pressure, inserts larger than the LRU tier — through a
``ShadowedCombinedCache``, which compares against the seed after every
operation (lookups replayed in the resolve's tier order).
"""

import numpy as np
import pytest

from cache_oracles import (
    CacheTraffic,
    DictLFUCache,
    DictLRUCache,
    ShadowedCombinedCache,
)
from repro.mem.cache import CombinedCache


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def zipf_trace(n_ops: int, n_keys: int, seed: int) -> np.ndarray:
    """A skewed access trace, the workload the combined policy targets."""
    rng = np.random.default_rng(seed)
    ranks = np.minimum(
        n_keys - 1,
        np.floor(np.clip(rng.random(n_ops), 1e-9, None) ** (-1.0 / 0.6)),
    ).astype(np.int64)
    return ranks.astype(np.uint64)


class TestTierParity:
    """Batches of one through an 8 + 8 cache: each tier's policy
    degenerates to the seed *tier* class's single-key ``put`` (first
    sight of each key; the tiers never overwrite), chained by hand."""

    def test_lru_single_op_trace(self):
        new, old = CombinedCache(16, value_dim=1), DictLRUCache(8)
        resident_before: list[int] = []
        for i, k in enumerate(dict.fromkeys(zipf_trace(500, 40, seed=1).tolist())):
            v = np.array([[float(i)]], dtype=np.float32)
            new.put_batch(keys_of([k]), v)
            want = old.put(k, v[0])
            # What the LRU tier evicted is what left its key list.
            lru = new._keys[new._tier_rows(new._tick)].tolist()
            assert lru == old.keys(), f"op {i}"
            assert [x for x in resident_before if x not in lru] == [
                wk for wk, _ in want
            ]
            for wk, wv in want:  # demoted, value intact (or flushed later)
                vals, found = new.peek_batch(keys_of([wk]))
                assert found[0] and vals[0, 0] == wv[0]
            resident_before = lru

    def test_lfu_single_op_trace(self):
        """Key ``i`` is touched up to frequency ``1 + i % 3`` right after
        its insert (it stays the most recent, so the LRU tier is a FIFO)
        and reaches the LFU tier eight inserts later with that seed."""
        new, old = CombinedCache(16, value_dim=1), DictLFUCache(8)
        trace = list(dict.fromkeys(zipf_trace(500, 40, seed=2).tolist()))
        for i, k in enumerate(trace):
            v = np.array([[float(i)]], dtype=np.float32)
            fk, fv, _ = new.put_batch(keys_of([k]), v)
            for _ in range(i % 3):
                assert new.prefetch_resolve(keys_of([k]))[0].all()
            want = []
            if i >= 8:  # the LRU tier's oldest key is demoted
                j = i - 8
                want = old.put(trace[j], np.array([float(j)]), freq=1 + j % 3)
                row = new._index.get(keys_of([trace[j]]))[0][0]
                assert int(new._freq[row]) == old.frequency(trace[j])
            assert fk.tolist() == [wk for wk, _ in want], f"op {i}"
            assert fv.ravel().tolist() == [wv[0] for _, wv in want]
        assert new._keys[new._tier_rows(new._ftick)].tolist() == old.keys()


class TestCombinedParity:
    def test_single_op_zipf_trace(self):
        """Single-key lookups and first-sight inserts on a skewed trace:
        eviction order must match through both the LRU→LFU demotion and
        the LFU→SSD flush."""
        cache = ShadowedCombinedCache(16, lru_fraction=0.5, value_dim=2)
        for i, k in enumerate(zipf_trace(800, 60, seed=3).tolist()):
            key = keys_of([k])
            hit, _ = cache.prefetch_resolve(key)
            if not hit[0]:
                cache.put_batch(key, np.full((1, 2), float(i), np.float32))

    def test_mem_ps_shaped_batches_under_pressure(self):
        """The MEM-PS cycle — tier-ordered resolve, pinned miss insert,
        write-back through the rows, release — against a cache much
        smaller than the stream."""
        t = CacheTraffic(64, 0.6)
        for round_ in range(30):
            working = np.unique(zipf_trace(48, 300, seed=100 + round_))
            assert t.resolve(working)
            t.write([True])
            t.end_round()
        assert t.ssd  # the stream really overflowed both tiers

    def test_batches_larger_than_the_lru_tier(self):
        """Insert streams that overflow the whole unpinned LRU spill the
        earliest batch positions — in the seed order."""
        cache = ShadowedCombinedCache(20, lru_fraction=0.5, value_dim=1)
        for start in (0, 100, 200):
            keys = np.arange(start, start + 40, dtype=np.uint64)
            vals = np.arange(40, dtype=np.float32).reshape(-1, 1) + start
            _, _, rows = cache.put_batch(keys, vals)
            assert (rows[:30] == -1).all() and (rows[30:] >= 0).all()
            _, hit = cache.get_batch(keys[::5])
            assert not hit[:4].any() and hit[-2:].all()

    def test_promotion_heavy_batches(self):
        """Lookups that promote LFU residents back into a full LRU."""
        cache = ShadowedCombinedCache(12, lru_fraction=0.5, value_dim=1)
        warm = np.arange(12, dtype=np.uint64)
        cache.put_batch(warm, np.arange(12, dtype=np.float32).reshape(-1, 1))
        # Six more inserts push 6..11 down into the LFU (flushing 0..5).
        more = np.arange(100, 106, dtype=np.uint64)
        fk, _, _ = cache.put_batch(more, np.zeros((6, 1), np.float32))
        assert fk.tolist() == [0, 1, 2, 3, 4, 5]
        # A whole tier's worth of promotions swaps the two tiers...
        _, hit = cache.get_batch(np.arange(6, 12, dtype=np.uint64))
        assert hit.all()
        # ...and promotions interleaved with LRU hits and misses resolve
        # in tier order.
        _, hit = cache.get_batch(keys_of([100, 7, 0, 101, 9, 102]))
        assert hit.tolist() == [True, True, False, True, True, True]

    def test_seed_replay_state_loads_and_reexports_byte_equal(self):
        """The checkpoint arrays are defined by the per-key seed, not by
        the slab: the state the ``DictCombinedCache`` replay is in —
        written the way a pre-slab checkpoint was — loads into a fresh
        cache and comes back out byte for byte (``FORMAT_VERSION`` did
        not move with the one-slab layout)."""
        t = CacheTraffic(64, 0.6)
        for round_ in range(12):
            assert t.resolve(np.unique(zipf_trace(48, 300, seed=round_)))
            t.write([True, False])
            t.end_round()
        state = t.cache._ref_state()
        assert state["lru_keys"].size and state["lfu_keys"].size
        assert state["lfu_freqs"].max() > 1 and state["lru_counts"].max() > 1
        fresh = CombinedCache(64, lru_fraction=0.6, value_dim=t.dim)
        fresh.load_state(state)
        again = fresh.export_state()
        assert list(again) == list(state)
        for name, want in state.items():
            got = again[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_randomized_mixed_trace(self, seed):
        """Random mixture of every operation, pins included."""
        rng = np.random.default_rng(seed)
        t = CacheTraffic(24, 0.4)
        for _ in range(250):
            kind = rng.choice(
                ["resolve", "write", "end", "peek", "insert", "snapshot"]
            )
            ks = rng.choice(80, size=int(rng.integers(1, 10)), replace=False)
            if kind == "resolve" and t.at_boundary:
                t.resolve(ks[: t.cache.lru_capacity])
            elif kind == "peek":
                t.peek(ks)
            elif kind == "insert":
                t.insert_unpinned(ks)
            elif kind == "snapshot" and t.at_boundary:
                t.snapshot_roundtrip()
            elif not t.at_boundary:
                if kind == "write":
                    t.write(rng.random(4) < 0.5)
                elif kind == "end":
                    t.end_round()
        if not t.at_boundary:
            t.end_round()
