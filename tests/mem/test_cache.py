"""Policy examples for the LRU / LFU / combined cache (Appendix D).

Small readable cases of what each tier's replacement policy does, seen
through ``CombinedCache``'s surface (a tier is metadata on a row of its slab):
``export_state`` lists each tier's keys in eviction order.  Generated
parity against the per-key seed lives in ``test_cache_traffic.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TierStateError
from repro.mem.cache import CombinedCache


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def put(c, *keys, pin=False):
    """Insert absent ``keys`` (value = key); returns (flushed keys, rows)."""
    k = keys_of(keys)
    vals = np.repeat(k.astype(np.float32)[:, None], c.value_dim, axis=1)
    fk, _, rows = c.put_batch(k, vals, pin=pin)
    return fk.tolist(), rows


def look_up(c, *keys):
    return c.prefetch_resolve(keys_of(keys))[0].tolist()


def tiers(c):
    state = c.export_state()
    return state["lru_keys"].tolist(), state["lfu_keys"].tolist()


def small(lru=2, lfu=2):
    c = CombinedCache(lru + lfu, lru_fraction=lru / (lru + lfu), value_dim=1)
    assert (c.lru_capacity, c.lfu_capacity) == (lru, lfu)
    return c


class TestLRU:
    def test_evicts_least_recent(self):
        c = small()
        put(c, 1, 2)
        put(c, 3)
        assert tiers(c) == ([2, 3], [1])

    def test_get_refreshes_recency(self):
        c = small()
        put(c, 1, 2)
        assert look_up(c, 1) == [True]
        put(c, 3)
        assert tiers(c) == ([1, 3], [2])

    def test_peek_does_not_refresh(self):
        c = small()
        put(c, 1, 2)
        c.peek_batch(keys_of([1]))
        put(c, 3)
        assert tiers(c) == ([2, 3], [1])

    def test_pinned_never_evicted(self):
        c = small()
        _, rows = put(c, 1, pin=True)
        put(c, 2)
        put(c, 3)
        c.unpin_rows(rows)
        assert tiers(c) == ([1, 3], [2])

    def test_unpin_releases(self):
        c = small(1, 1)
        _, rows = put(c, 1, pin=True)
        c.unpin_rows(rows)
        put(c, 2)
        assert tiers(c) == ([2], [1])

    def test_all_pinned_over_capacity_raises(self):
        c = small(1, 1)
        put(c, 1, pin=True)
        with pytest.raises(TierStateError, match="pinned"):
            put(c, 2, pin=True)

    def test_overwrite_keeps_size(self):
        """The insert takes absent keys only: a resident key is refused
        (typed, nothing changed) — values change through rows."""
        c = small()
        _, rows = put(c, 1)
        with pytest.raises(TierStateError, match="absent keys only"):
            put(c, 1)
        assert len(c) == 1
        c.update_rows(rows, np.array([[10.0]], dtype=np.float32))
        assert c.peek_batch(keys_of([1]))[0][0, 0] == 10.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CombinedCache(0)
        with pytest.raises(ValueError):
            CombinedCache(4, value_dim=0)


class TestLFU:
    def test_evicts_least_frequent(self):
        c = small()
        put(c, 1, 2)
        look_up(c, 1)
        look_up(c, 1)
        put(c, 3, 4)  # demotes 1 (count 3) and 2 (count 1)
        flushed, _ = put(c, 5)  # demotes 3 into the full LFU
        assert flushed == [2]

    def test_tie_breaks_oldest(self):
        c = small()
        put(c, 1, 2, 3, 4)  # 1, 2 demoted, both frequency 1; 1 is older
        flushed, _ = put(c, 5)
        assert flushed == [1]

    def test_frequency_tracked(self):
        c = small()
        put(c, 1)
        look_up(c, 1)
        look_up(c, 1)
        put(c, 2, 3)
        state = c.export_state()
        assert (state["lfu_keys"].tolist(), state["lfu_freqs"].tolist()) == ([1], [3])
        assert look_up(c, 1, 99) == [True, False]  # promoted: frequency + 1
        state = c.export_state()
        assert state["lru_counts"][state["lru_keys"] == 1].tolist() == [4]

    def test_pop_removes(self):
        """A promotion takes the key out of the LFU tier."""
        c = small()
        put(c, 1, 2, 3)
        assert tiers(c) == ([2, 3], [1])
        assert look_up(c, 1) == [True]
        assert tiers(c) == ([3, 1], [2])

    def test_pop_then_put_consistent(self):
        c = small()
        put(c, 1, 2, 3, 4)  # LFU: 1, 2
        look_up(c, 1)  # promote 1; 3 takes its LFU row
        put(c, 5)
        put(c, 6)  # demotions into a full LFU must evict, not crash
        assert len(c) == 4
        assert c.n_lfu == 2


class TestCombined:
    def test_paper_flow_lru_to_lfu_to_flush(self):
        """Appendix D: visited -> LRU; LRU evict -> LFU; LFU evict -> SSD."""
        c = small()
        flush = []
        for k in range(6):
            flush += put(c, k)[0]
        # 6 inserts through 2+2 capacity: exactly 2 must have flushed out.
        assert len(flush) == 2
        assert len(c) == 4

    def test_lfu_hit_promotes_to_lru(self):
        c = small()
        put(c, 0, 1, 2, 3)
        assert tiers(c) == ([2, 3], [0, 1])  # keys 0, 1 demoted by now
        hit, rows = c.prefetch_resolve(keys_of([0]))
        assert hit.all()
        assert c.values_at(rows)[0, 0] == 0.0
        assert tiers(c)[0] == [3, 0]

    def test_stats_track_hits_and_misses(self):
        c = CombinedCache(4, value_dim=1)
        put(c, 1)
        look_up(c, 1)
        look_up(c, 99)
        assert c.stats.hits == 1
        assert c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_get_batch_zero_fills_misses(self):
        c = CombinedCache(4, value_dim=1)
        c.put_batch(keys_of([2]), np.array([[5.0]], dtype=np.float32))
        vals, hit = c.get_batch(np.array([2, 3], dtype=np.uint64))
        assert hit.tolist() == [True, False]
        assert vals[0, 0] == 5.0
        assert vals[1, 0] == 0.0

    def test_put_batch_returns_flushes(self):
        c = small()
        keys = np.arange(10, dtype=np.uint64)
        vals = np.arange(10, dtype=np.float32).reshape(-1, 1)
        fk, fv, rows = c.put_batch(keys, vals)
        assert fk.size == 6  # 10 in, 4 retained
        assert fv.shape == (6, 1)
        # The last two landed in LRU rows; the rest spilled through.
        assert (rows[:8] == -1).all()
        assert np.array_equal(c.values_at(rows[8:]), vals[8:])

    def test_pinned_working_set_protected_in_batch(self):
        c = small(3, 3)
        keys = np.arange(3, dtype=np.uint64)
        _, _, rows = c.put_batch(keys, np.zeros((3, 1), np.float32), pin=True)
        c.put_batch(np.arange(10, 16, dtype=np.uint64), np.zeros((6, 1), np.float32))
        _, hit = c.get_batch(keys)
        assert hit.all()
        c.unpin_rows(rows)
        assert c.pinned_count() == 0

    def test_oversubscribed_resolve_is_refused_untouched(self):
        """LRU hits + LFU promotions beyond the LRU tier used to evict
        the segment-1 hits whose rows were already recorded — all ten
        reported ``hit`` with two stale rows.  Now: a typed error naming
        the sizes and the knobs, before any tick or promotion."""
        c = CombinedCache(16, lru_fraction=0.5, value_dim=1)
        put(c, *range(1, 9))
        put(c, *range(9, 17))
        before = c.export_state()
        with pytest.raises(TierStateError) as err:
            c.prefetch_resolve(keys_of([1, 2, 3, 4, 9, 10, 11, 12, 13, 14]))
        for part in ("10 keys", "8-row", "mem_capacity_params", "cache_lru_fraction"):
            assert part in str(err.value)
        after = c.export_state()
        assert all(np.array_equal(before[f], after[f]) for f in before)
        # Eight fit, and every row reads back its own key.
        union = keys_of([1, 2, 3, 4, 9, 10, 11, 12])
        hit, rows = c.prefetch_resolve(union)
        assert hit.all()
        assert np.array_equal(c.values_at(rows)[:, 0], union.astype(np.float32))

    def test_resolve_counts_only_the_pins_it_does_not_share(self):
        c = small(4, 4)
        _, held = put(c, 1, 2, 3, pin=True)
        # 3 keys + 3 foreign pins > 4 rows ...
        with pytest.raises(TierStateError, match="pinned"):
            c.prefetch_resolve(keys_of([7, 8, 9]))
        # ... but a union that *is* two of the pinned keys shares them.
        assert look_up(c, 1, 2, 7) == [True, True, False]
        c.unpin_rows(held)

    def test_repeated_key_in_put_batch_is_refused_untouched(self):
        """``[3, 3, 5]`` used to land key 3 in two slab rows behind one
        index entry, with ``len(cache) == 3``."""
        c = CombinedCache(8, value_dim=1)
        put(c, 1)
        before = c.export_state()
        with pytest.raises(ValueError, match="unique"):
            put(c, 3, 3, 5)
        after = c.export_state()
        assert all(np.array_equal(before[f], after[f]) for f in before)
        assert len(c) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CombinedCache(1)
        with pytest.raises(ValueError):
            CombinedCache(10, lru_fraction=0.0)


class TestCombinedKeepsHotKeys:
    def test_hot_keys_survive_scan(self):
        """The LFU tier retains frequently used keys through a one-off
        scan of cold keys — the paper's rationale for LRU+LFU."""
        c = CombinedCache(20, lru_fraction=0.5, value_dim=1)
        hot = list(range(5))
        put(c, *hot)
        for _ in range(4):
            assert all(look_up(c, *hot))
        for k in range(100, 140):  # cold scan
            put(c, k)
        assert c.peek_batch(keys_of(hot))[1].sum() >= 4


@given(
    st.lists(
        st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 30)),
        max_size=300,
    )
)
@settings(max_examples=40, deadline=None)
def test_combined_never_exceeds_capacity_and_flushes_are_disjoint(ops):
    c = CombinedCache(8, lru_fraction=0.5, value_dim=1)
    for op, k in ops:
        if op == "get" or c.peek_batch(keys_of([k]))[1][0]:
            look_up(c, k)
        else:
            flushed, _ = put(c, k)
            assert not c.peek_batch(keys_of(flushed))[1].any()
        assert len(c) <= c.capacity


class TestCombinedCacheSnapshot:
    """export_state/load_state preserve future replacement behavior."""

    @staticmethod
    def _step(cache, rng, n_put, n_get, hi):
        """One insert of the absent part of a random key set, one
        lookup; returns everything observable."""
        keys = np.unique(rng.integers(0, hi, size=n_put).astype(np.uint64))
        keys = keys[~cache.peek_batch(keys)[1]]
        out = cache.put_batch(keys, np.tile(keys[:, None], (1, 2)).astype(np.float32))
        probe = np.unique(rng.integers(0, hi, size=n_get).astype(np.uint64))
        return (*out, *cache.get_batch(probe))

    def _warmed(self, seed=0):
        rng = np.random.default_rng(seed)
        cache = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        for _ in range(6):
            self._step(cache, rng, 8, 5, 60)
        return cache

    def test_round_trip_preserves_contents_and_stats(self):
        cache = self._warmed()
        state = cache.export_state()
        other = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        other.load_state(state)
        # Tier membership, order, values, metadata and stats all survive.
        restored = other.export_state()
        assert state.keys() == restored.keys()
        for name in state:
            assert np.array_equal(state[name], restored[name]), name
        assert state["lru_keys"].size and state["lfu_keys"].size
        assert other.stats.hits == cache.stats.hits > 0

    def test_round_trip_preserves_future_evictions(self):
        """Same subsequent ops -> same hits, flushes, and final layout."""
        cache = self._warmed(seed=1)
        other = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        other.load_state(cache.export_state())
        rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(8):
            out_a = self._step(cache, rng_a, 7, 6, 80)
            out_b = self._step(other, rng_b, 7, 6, 80)
            # Flush pairs, hit masks and values agree (rows need not).
            for a, b in zip(out_a[:2] + out_a[3:], out_b[:2] + out_b[3:]):
                assert np.array_equal(a, b)
        final_a, final_b = cache.export_state(), other.export_state()
        for name in final_a:
            assert np.array_equal(final_a[name], final_b[name]), name

    def test_export_refuses_pinned_entries(self):
        cache = CombinedCache(8, value_dim=1)
        keys = np.array([1, 2], dtype=np.uint64)
        _, _, rows = cache.put_batch(keys, np.ones((2, 1), np.float32), pin=True)
        with pytest.raises(RuntimeError, match="pinned"):
            cache.export_state()
        cache.unpin_rows(rows)
        cache.export_state()

    def test_load_rejects_oversized_snapshot(self):
        cache = self._warmed()
        small = CombinedCache(4, value_dim=2)
        with pytest.raises(ValueError, match="capacit"):
            small.load_state(cache.export_state())


class TestLoadValidatesBeforeItMutates:
    """``load_state`` — directly, or of a delta folded onto its base —
    refuses, with a ``ValueError`` naming the key or the array and the
    target's old contents intact, snapshots no cache can be in; the fold
    refuses a malformed delta without mutating either input.  (Loads
    used to put a key into both tiers, or two rows behind one index
    entry, silently, and to die on a short metadata array only after the
    tiers had been reset.)"""

    @staticmethod
    def _caches():
        """A 16-row target holding keys 50..57, a warmed donor whose
        valid snapshot / delta the cases below corrupt, and the donor's
        (empty) export at its mark — the base its delta folds onto."""
        target = CombinedCache(16, value_dim=1)
        put(target, *range(50, 58))
        donor = CombinedCache(16, value_dim=1)
        base = donor.export_state()
        donor.mark_snapshot()  # marked empty: its delta ships every value
        put(donor, *range(1, 13))  # 8 LRU rows, 4 demoted
        look_up(donor, 9, 10)
        return target, donor, base

    @staticmethod
    def _load_folded(target, base, delta, match):
        """Fold ``delta`` onto ``base`` and load it into ``target``,
        expecting ``match``; neither input may change."""
        inputs = [{k: np.copy(v) for k, v in d.items()} for d in (base, delta)]
        with pytest.raises(ValueError, match=match):
            target.load_state(target.fold_delta(base, delta))
        for before, after in zip(inputs, (base, delta)):
            assert list(before) == list(after)
            assert all(np.array_equal(before[k], after[k]) for k in before)

    @staticmethod
    def _assert_untouched(target, before):
        vals, found = target.peek_batch(keys_of(range(50, 58)))
        assert found.all() and vals[:, 0].tolist() == list(range(50, 58))
        after = target.export_state()
        assert all(np.array_equal(before[f], after[f]) for f in before)
        put(target, 99)  # and still a working cache
        assert len(target) == 9

    CORRUPTIONS = {
        "key in both tiers": (
            lambda s: s["lfu_keys"].__setitem__(0, s["lru_keys"][2]),
            "key 7 more than once",
        ),
        "key twice in one tier": (
            lambda s: s["lru_keys"].__setitem__(1, s["lru_keys"][0]),
            "key 5 more than once",
        ),
        "short lru_counts": (
            lambda s: s.__setitem__("lru_counts", s["lru_counts"][:-1]),
            "lru_counts has shape",
        ),
        "short lfu_freqs": (
            lambda s: s.__setitem__("lfu_freqs", s["lfu_freqs"][:-1]),
            "lfu_freqs has shape",
        ),
        "zero frequency": (
            lambda s: s["lfu_freqs"].__setitem__(1, 0),
            "lfu_freqs must be >= 1",
        ),
        "negative count": (
            lambda s: s["lru_counts"].__setitem__(0, -3),
            "lru_counts must be >= 1",
        ),
        "tier over capacity": (
            lambda s: s.update(
                lru_keys=np.arange(20, 29, dtype=np.uint64),
                lru_values=np.zeros((9, 1), np.float32),
                lru_counts=np.ones(9, np.int64),
            ),
            "capacit",
        ),
        "sentinel key": (
            lambda s: s["lru_keys"].__setitem__(0, np.uint64(2**64 - 1)),
            "outside the key domain",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_state_refuses_and_keeps_old_contents(self, case):
        corrupt, match = self.CORRUPTIONS[case]
        target, donor, _ = self._caches()
        before = target.export_state()
        state = donor.export_state()
        corrupt(state)
        with pytest.raises(ValueError, match=match):
            target.load_state(state)
        self._assert_untouched(target, before)

    @pytest.mark.parametrize(
        "case", sorted(set(CORRUPTIONS) - {"tier over capacity"})
    )
    def test_load_delta_refuses_and_keeps_old_contents(self, case):
        corrupt, match = self.CORRUPTIONS[case]
        target, donor, base = self._caches()
        before = target.export_state()
        # A delta against an empty base ships every value, so only the
        # corruption stands between it and the target.
        delta = donor.export_delta()
        assert len(delta["lru_values"]) + len(delta["lfu_values"]) == len(donor)
        corrupt(delta)
        self._load_folded(target, base, delta, match)
        self._assert_untouched(target, before)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (
                lambda d: d.__setitem__("lfu_dirty", d["lfu_dirty"] | np.uint8(1)),
                "lfu_dirty marks rows past its 4 lfu_keys",
            ),
            (
                lambda d: d.__setitem__("lfu_kept", np.packbits([True])),
                "lfu_kept is not a packed mask of 0 base lfu_keys",
            ),
            (lambda d: d.__setitem__("lru_values", d["lru_values"][:3]), "lru_values is"),
        ],
        ids=["index past the keys", "kept past the base", "short values"],
    )
    def test_load_delta_checks_its_value_index(self, corrupt, match):
        """The packed dirty mask indexes the shipped values and the kept
        mask the base: a bit past either, or values the mask does not
        count, is refused before anything loads."""
        target, donor, base = self._caches()
        before = target.export_state()
        delta = donor.export_delta()
        corrupt(delta)
        self._load_folded(target, base, delta, match)
        self._assert_untouched(target, before)

    def test_fold_refuses_a_wrong_base(self):
        """A value the delta did not ship comes from the base by key; a
        base that lacks the key is the wrong base."""
        target, donor, _ = self._caches()
        base = donor.export_state()
        donor.mark_snapshot()
        look_up(donor, 1, 2)  # metadata moves, no value is written
        delta = donor.export_delta()
        assert len(delta["lru_values"]) == len(delta["lfu_values"]) == 0
        before = target.export_state()
        self._load_folded(target, before, delta, r"absent from the base, e\.g\. \[")
        self._assert_untouched(target, before)
        target.load_state(target.fold_delta(base, delta))  # the right base
        want, got = donor.export_state(), target.export_state()
        assert all(np.array_equal(want[k], got[k]) for k in want)
