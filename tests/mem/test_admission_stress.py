"""Seeded pressure streams for the MEM cache's admission paths.

The cache must be *sequential-equivalent* to the seed per-key reference
(``tests/cache_oracles.py``) in the regime that hurts: capacity far
below the key space, several rounds' pins blocking the eviction
frontier, and promotion / demotion / flush storms on every resolve.
The streams are the traffic ``MemPS`` really sends — the same
``CacheTraffic`` verbs the hypothesis state machine in
``test_cache_traffic.py`` explores, here under fixed seeds so a failure
names a trial that reproduces forever.  Every step is checked by the
shadow: bit-identical contents, eviction order, flush pairs, statistics.

The two tier slabs are additionally driven on their own — LRU insert,
its demotion stream into the LFU, chained by hand — against the seed
tier classes.
"""

import numpy as np
import pytest

from cache_oracles import CacheTraffic, DictLFUCache, DictLRUCache
from repro.errors import TierStateError
from repro.mem.cache import LFUCache, LRUCache

N_TRIALS = 220


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_admission_matches_per_key_reference(trial):
    """capacity ≪ key space, overlapping pinned rounds, snapshots:
    bit-identical to the seed at every step."""
    rng = np.random.default_rng(1000 + trial)
    capacity = int(rng.integers(8, 40))
    key_space = int(rng.integers(capacity, capacity * 6))
    t = CacheTraffic(capacity, float(rng.uniform(0.3, 0.7)))
    lru_cap = t.cache.lru.capacity

    def some_keys(hi):
        n = int(rng.integers(1, max(2, hi + 1)))
        return rng.choice(key_space, size=min(n, key_space), replace=False)

    for _ in range(int(rng.integers(8, 20))):
        verbs = ["resolve", "peek", "insert_unpinned"]
        if t.in_flight:
            verbs += ["write", "write", "touch", "end_round", "end_round"]
        else:
            verbs += ["snapshot", "delta", "flush_all"]
        verb = rng.choice(verbs)
        if verb == "resolve" and len(t.in_flight) < 3:
            # Mostly unions that fit beside the pins held; sometimes one
            # sized against the whole tier, which must be refused —
            # cache untouched — whenever it oversubscribes.
            hi = t.room() if rng.random() < 0.85 else lru_cap + 2
            t.resolve(some_keys(hi), carry=bool(rng.random() < 0.6))
        elif verb == "write":
            t.write(int(rng.integers(3)), rng.random(8) < 0.6)
        elif verb == "touch":
            t.touch(int(rng.integers(3)))
        elif verb == "end_round":
            t.end_round(int(rng.integers(3)))
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
                t.delta_roundtrip(by_dirty_keys=bool(rng.random() < 0.5))
        elif verb == "flush_all":
            t.flush_all()
    if trial % 2:
        t.abort()
    while t.in_flight:
        t.end_round()
    assert t.cache.pinned_count() == 0
    t.cache.export_state()  # one last full comparison against the seed


@pytest.mark.parametrize("seed", range(40))
def test_standalone_tiers_match_scalar_replay(seed):
    """The two tier slabs chained by hand — LRU insert, its demotion
    stream into the LFU — against the seed tiers looped per key: same
    victims, order, values and frequency seeds, with pins, touches and
    spill-through in the LRU and arrivals evicted inside their own batch
    in the LFU."""
    rng = np.random.default_rng(2000 + seed)
    capacity = int(rng.integers(4, 24))
    fresh = iter(rng.permutation(100_000).astype(np.uint64))
    lru, ref_lru = LRUCache(capacity, 2), DictLRUCache(capacity)
    lfu, ref_lfu = LFUCache(capacity, 2), DictLFUCache(capacity)
    counts: dict[int, int] = {}
    for _ in range(8):
        # Touch some residents (a resolve's LRU segment), unpin others.
        slots, _ = lru._items_in_order(lru._tick)
        touched = slots[rng.random(slots.size) < 0.4]
        lru._tick[touched] = lru._ticks(touched.size)
        lru._count[touched] += 1
        for k in lru._keys[touched].tolist():
            assert ref_lru.get(k) is not None
            counts[k] += 1
        released = slots[rng.random(slots.size) < 0.5]
        lru._pinned[released] = False
        for k in lru._keys[released].tolist():
            ref_lru.unpin(k)

        n = int(rng.integers(1, capacity * 2))
        keys = np.array([next(fresh) for _ in range(n)], dtype=np.uint64)
        vals = rng.normal(size=(n, 2)).astype(np.float32)
        pin = bool(rng.random() < 0.3)
        if pin and n + int(lru._pinned.sum()) > capacity:
            with pytest.raises(TierStateError, match="pinned"):
                lru.insert(keys, vals, True)
            pin = False
        rows, ekeys, evals, ecounts = lru.insert(keys, vals, pin)
        demoted = []
        for k, v in zip(keys.tolist(), vals):
            counts[k] = 1
            demoted += ref_lru.put(k, v, pin=pin)
        assert ekeys.tolist() == [k for k, _ in demoted]
        assert ecounts.tolist() == [counts.pop(k) for k, _ in demoted]
        assert np.array_equal(evals, np.array([v for _, v in demoted]).reshape(-1, 2))
        landed = rows >= 0
        assert np.array_equal(lru._keys[rows[landed]], keys[landed])
        assert landed.tolist() == [k in ref_lru for k in keys.tolist()]
        assert lru._items_in_order(lru._tick)[1].tolist() == ref_lru.keys()

        fk, fv = lfu.bulk_insert(ekeys, evals, ecounts)
        flushed = []
        for (k, v), f in zip(demoted, ecounts.tolist()):
            flushed += ref_lfu.put(k, v, freq=f)
        assert fk.tolist() == [k for k, _ in flushed]
        assert np.array_equal(fv, np.array([v for _, v in flushed]).reshape(-1, 2))
        slots, resident = lfu._items_in_order(lfu._tick)
        assert resident.tolist() == ref_lfu.keys()  # entry order
        assert lfu._freq[slots].tolist() == [
            ref_lfu.frequency(k) for k in ref_lfu.keys()
        ]
