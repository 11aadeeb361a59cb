"""Seeded pressure streams for the MEM cache's admission paths.

The cache must be *sequential-equivalent* to the seed per-key reference
(``tests/cache_oracles.py``) in the regime that hurts: capacity far
below the key space, the in-flight round's pins blocking the eviction
frontier, and promotion / demotion / flush storms on every resolve.
The streams are the traffic ``MemPS`` really sends — the same
``CacheTraffic`` verbs the hypothesis state machine in
``test_cache_traffic.py`` explores, here under fixed seeds so a failure
names a trial that reproduces forever.  Every step is checked by the
shadow: bit-identical contents, eviction order, flush pairs, statistics.

The two tier policies are additionally checked on their own: an
equal-tiers cache against the seed *tier* classes (``DictLRUCache`` →
its demotion stream → ``DictLFUCache``) chained by hand, with no
combined-policy seed in between.
"""

import numpy as np
import pytest

from cache_oracles import CacheTraffic, DictLFUCache, DictLRUCache
from repro.errors import TierStateError
from repro.mem.cache import CombinedCache

pytestmark = pytest.mark.usefixtures("small_slab")

N_TRIALS = 220


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_admission_matches_per_key_reference(trial):
    """capacity ≪ key space, a pinned round in flight, snapshots:
    bit-identical to the seed at every step."""
    rng = np.random.default_rng(1000 + trial)
    capacity = int(rng.integers(8, 40))
    key_space = int(rng.integers(capacity, capacity * 6))
    t = CacheTraffic(capacity, float(rng.uniform(0.3, 0.7)))
    lru_cap = t.cache.lru_capacity

    def some_keys(hi):
        n = int(rng.integers(1, max(2, hi + 1)))
        return rng.choice(key_space, size=min(n, key_space), replace=False)

    for _ in range(int(rng.integers(8, 20))):
        verbs = ["peek", "insert_unpinned"]
        if t.at_boundary:
            verbs += ["resolve", "snapshot", "delta"]
        else:
            verbs += ["write", "write", "end_round", "end_round"]
        verb = rng.choice(verbs)
        if verb == "resolve":
            # Mostly unions that fit the LRU tier; sometimes one sized
            # past it, which must be refused — cache untouched —
            # whenever it oversubscribes.
            hi = lru_cap if rng.random() < 0.85 else lru_cap + 2
            t.resolve(some_keys(hi))
        elif verb == "write":
            t.write(rng.random(8) < 0.6)
        elif verb == "end_round":
            t.end_round()
        elif verb == "peek":
            t.peek(some_keys(12))
        elif verb == "insert_unpinned":
            t.insert_unpinned(some_keys(2 * lru_cap))
        elif verb == "snapshot":
            t.snapshot_roundtrip()
        elif verb == "delta":
            if t.base is None:
                t.take_base()
            else:
                t.delta_roundtrip()
    if not t.at_boundary:
        t.end_round()
    assert t.cache.pinned_count() == 0
    t.cache.export_state()  # one last full comparison against the seed


@pytest.mark.parametrize("seed", range(40))
def test_standalone_tiers_match_scalar_replay(seed):
    """The two tier policies against the seed tiers looped per key and
    chained by hand — ``DictLRUCache.put``, its evictions into
    ``DictLFUCache.put`` with the access counts as frequency seeds:
    same victims, order, values and frequency seeds, with pins, touches
    and spill-through in the LRU and arrivals evicted inside their own
    batch in the LFU.  Both tiers get ``capacity`` rows."""
    rng = np.random.default_rng(2000 + seed)
    capacity = int(rng.integers(4, 24))
    fresh = iter(rng.permutation(100_000).astype(np.uint64))
    cache = CombinedCache(2 * capacity, lru_fraction=0.5, value_dim=2)
    assert cache.lru_capacity == cache.lfu_capacity == capacity
    ref_lru, ref_lfu = DictLRUCache(capacity), DictLFUCache(capacity)
    counts: dict[int, int] = {}
    for _ in range(8):
        # Touch some residents (a resolve's LRU segment), unpin others.
        rows = cache._tier_rows(cache._tick)
        touched = rows[rng.random(rows.size) < 0.4]
        assert cache.prefetch_resolve(cache._keys[touched])[0].all()
        for k in cache._keys[touched].tolist():
            assert ref_lru.get(k) is not None
            counts[k] += 1
        released = rows[rng.random(rows.size) < 0.5]
        cache.unpin_rows(released)
        for k in cache._keys[released].tolist():
            ref_lru.unpin(k)

        n = int(rng.integers(1, capacity * 2))
        keys = np.array([next(fresh) for _ in range(n)], dtype=np.uint64)
        vals = rng.normal(size=(n, 2)).astype(np.float32)
        pin = bool(rng.random() < 0.3)
        if pin and n + cache.pinned_count() > capacity:
            with pytest.raises(TierStateError, match="pinned"):
                cache.put_batch(keys, vals, pin=True)
            pin = False
        fk, fv, rows = cache.put_batch(keys, vals, pin=pin)
        demoted = []
        for k, v in zip(keys.tolist(), vals):
            counts[k] = 1
            demoted += ref_lru.put(k, v, pin=pin)
        landed = rows >= 0
        assert np.array_equal(cache._keys[rows[landed]], keys[landed])
        assert landed.tolist() == [k in ref_lru for k in keys.tolist()]
        lru_rows = cache._tier_rows(cache._tick)
        assert cache._keys[lru_rows].tolist() == ref_lru.keys()
        assert cache._count[lru_rows].tolist() == [counts[k] for k in ref_lru.keys()]

        # The demotion stream itself is internal now; it shows in full
        # through what the LFU flushed (in order) and kept (entry order,
        # frequency seeds).
        flushed = []
        for k, v in demoted:
            flushed += ref_lfu.put(k, v, freq=counts.pop(k))
        assert fk.tolist() == [k for k, _ in flushed]
        assert np.array_equal(fv, np.array([v for _, v in flushed]).reshape(-1, 2))
        lfu_rows = cache._tier_rows(cache._ftick)
        assert cache._keys[lfu_rows].tolist() == ref_lfu.keys()  # entry order
        assert cache._freq[lfu_rows].tolist() == [
            ref_lfu.frequency(k) for k in ref_lfu.keys()
        ]
        for k, r in zip(ref_lfu.keys(), lfu_rows):
            assert np.array_equal(cache._values[r], ref_lfu._data[k])
