"""LFU insert runs under eviction pressure.

A demotion run is *mixed*: its victims come both from the tier's
residents and from the run's own arrivals (a cold arrival is evicted by a
later one before a hot resident is), and frequencies are seeded per key.
``CombinedCache.put_batch`` solves the whole run offline in one pass
(``_greedy_evictions``); exactness is checked against the seed
``DictLFUCache`` looped per key inside the seed combined policy, through
the shadowed cache.
"""

import numpy as np
import pytest

from cache_oracles import ShadowedCombinedCache
from repro.mem.cache import _FAR, CombinedCache

pytestmark = pytest.mark.usefixtures("small_slab")


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_for(keys, dim=2, salt=0.0):
    out = np.repeat(
        np.asarray(keys, dtype=np.float32)[:, None] + salt, dim, axis=1
    )
    return out


def pressured_cache():
    """A shadowed 8+8 cache, both tiers full: keys 0..7 demoted into the
    LFU, 8..15 in the LRU."""
    cache = ShadowedCombinedCache(16, lru_fraction=0.5, value_dim=2)
    base = keys_of(range(16))
    cache.put_batch(base, vals_for(base))
    return cache


class TestMixedRunExtension:
    def test_prefetch_shaped_trace_stays_collision_free(self):
        """Hot residents of both tiers re-read inside a miss storm, on a
        full cache: the resolve is one dense pass per tier segment and
        the miss insert one more — never a cut."""
        cache = pressured_cache()
        union = keys_of([2, 5, 9, 12, 14, 100, 101, 102])  # 2 LFU, 3 LRU, 3 new
        runs_before = cache.stats.admission_runs
        hit, rows = cache.prefetch_resolve(union)
        assert hit.tolist() == [True] * 5 + [False] * 3
        assert cache.stats.admission_runs == runs_before + 3
        cache.pin_rows(rows[hit])
        fk, _, rows[~hit] = cache.put_batch(
            union[~hit], vals_for(union[~hit]), pin=True
        )
        assert cache.stats.admission_runs == runs_before + 4
        # 2 promotions + 3 inserts pushed 5 rows down into a full LFU
        # that the promotions had only freed 2 rows of.
        assert fk.size == 3
        assert np.array_equal(cache._keys[rows], union)

    def test_bumped_resident_evicted_later_flushes_new_value(self):
        """A key promoted (frequency bumped), rewritten through its row,
        demoted again and finally flushed leaves with its *new* value."""
        cache = pressured_cache()
        hit, rows = cache.prefetch_resolve(keys_of([3]))
        assert hit.all()
        cache.pin_rows(rows)
        cache.update_rows(rows, vals_for([3], salt=9.0))
        cache.unpin_rows(rows)
        # Demote it (frequency 2) under eight keys made hotter still, so
        # the LFU finally prefers to flush it.
        hot = keys_of(range(100, 108))
        cache.put_batch(hot, vals_for(hot))
        for _ in range(2):
            assert cache.prefetch_resolve(hot)[0].all()
        more = keys_of(range(108, 116))
        fk, fv, _ = cache.put_batch(more, vals_for(more))
        assert dict(zip(fk.tolist(), fv[:, 0].tolist()))[3] == 12.0

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_oracle_parity(self, seed):
        """Random demotion runs with mixed frequency seeds, up to twice
        the LFU tier: flush pairs, entry order and frequencies match the
        per-key seed at every step.  The LRU tier is twice the LFU, so
        one insert can demote a run of ``2 * capacity``; re-resolving
        random LRU residents first gives the run mixed frequency seeds
        (1, 2, 3, ...)."""
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(4, 24))
        cache = ShadowedCombinedCache(
            3 * capacity,
            lru_fraction=(2 * capacity + 0.5) / (3 * capacity),
            value_dim=2,
        )
        assert (cache.lru_capacity, cache.lfu_capacity) == (2 * capacity, capacity)
        fresh = iter(rng.permutation(10_000).astype(np.uint64))
        longest, hottest, flushed = 0, 0, 0
        for _ in range(10):
            for _ in range(2):
                rows = cache._tier_rows(cache._tick)
                touched = cache._keys[rows[rng.random(rows.size) < 0.4]]
                assert cache.prefetch_resolve(touched)[0].all()
            n = int(rng.integers(1, 2 * capacity))
            batch = keys_of([next(fresh) for _ in range(n)])
            run = max(0, cache.n_lru + n - cache.lru_capacity)
            victims = cache._lru_victims(run)
            longest = max(longest, run)
            hottest = max(hottest, int(cache._count[victims].max(initial=0)))
            # The shadow replays the insert per key and compares the
            # flush pairs in order, both tiers and every frequency.
            fk, _, _ = cache.put_batch(
                batch, vals_for(batch, salt=float(rng.integers(0, 100)))
            )
            flushed += fk.size
        assert longest > capacity and hottest >= 3 and flushed

    def test_mixed_runs_count_as_single_admission_run(self):
        """An insert whose demotion cascade evicts residents *and* its
        own spilled arrivals is still one admission run."""
        cache = pressured_cache()
        runs_before = cache.stats.admission_runs
        big = keys_of(range(200, 220))  # 20 keys through an 8-row LRU
        fk, _, rows = cache.put_batch(big, vals_for(big))
        assert cache.stats.admission_runs == runs_before + 1
        assert (rows[:12] == -1).all() and (rows[12:] >= 0).all()
        assert fk.size == 20  # 8 old LRU rows + 12 spilled, into a full LFU


def lfu_tier(freqs, seed=0):
    """A cache whose LFU tier is ``freqs`` at scattered slab rows, each
    row with a distinct entry tick drawn out of order."""
    rng = np.random.default_rng(seed)
    n = len(freqs)
    cache = CombinedCache(2 * n + 2, value_dim=1)
    cache._grow(cache.capacity)  # a slab starts small; scatter over all rows
    rows = rng.permutation(cache._keys.size)[:n]
    cache._freq[rows] = freqs
    cache._ftick[rows] = rng.permutation(4 * n + 1)[:n]
    cache.n_lfu = n
    return cache


def lexsort_order(cache, n_evict):
    """The ``n_evict`` smallest LFU rows by (freq, entry tick), in that
    order, as one ``np.lexsort`` over the whole tier."""
    rows = np.flatnonzero(cache._freq < _FAR)
    order = np.lexsort((cache._ftick[rows], cache._freq[rows]))
    return rows[order][:n_evict]


class TestPoolCandidateOrder:
    """``_pool_candidates`` sorts by tick, then stably by the narrowed
    frequency; that must be the (freq, tick) lexsort order whatever the
    dtype the frequencies narrow to."""

    @pytest.mark.parametrize("high", [5, 400, 70_000, 2**40])  # uint8 … uint64
    def test_matches_lexsort(self, high):
        """Hundreds of rows per frequency — enough for an unstable sort
        to reorder ties (short arrays are insertion-sorted) — evicting
        fewer rows than the tier holds and at least as many."""
        rng = np.random.default_rng(high)
        cache = lfu_tier(rng.choice([1, 2, high // 2, high], size=2000), seed=1)
        for n_evict in (1, 700, 1999, 2000, 2500):
            assert np.array_equal(
                cache._pool_candidates(n_evict), lexsort_order(cache, n_evict)
            ), n_evict

    def test_empty_lfu_tier(self):
        cache = CombinedCache(8, value_dim=1)
        assert cache._pool_candidates(3).size == 0
