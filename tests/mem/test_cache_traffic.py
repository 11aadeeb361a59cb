"""Parity on the traffic that exists, generated.

``MemPS`` talks to its cache in one shape: resolve a unique union in
tier order, pin the hits, insert the misses pinned, read / write
through rows, release the round, snapshot at boundaries.  This state
machine generates exactly that traffic (``CacheTraffic`` in
``tests/cache_oracles.py``) on a small cache under eviction pressure.
Every step runs on a ``ShadowedCombinedCache``, which replays it key by
key on the seed dict implementation and compares hit masks, flush pairs
in order, row identities, both tiers' contents in eviction order,
replacement metadata, ``hits`` / ``misses`` and pins, and checks the
slab layout the seed cannot see — a resident key's row constant from its
insert to its flush across promotions and demotions, exactly one tier
per resident key, ``n_lru`` / ``n_lfu`` within their capacities and
summing with the free stack to the slab, one index entry per resident;
the model adds the
losslessness check (every key always reads back its last written value,
whatever tiers or SSD round trips it went through), pin count 0 at round
boundaries, and "a refused resolve leaves the cache untouched".  Delta
snapshots go through the tier's own verbs — ``mark_snapshot()`` /
``export_delta()`` — and every delta is held to the base-diffing oracle
(``oracle_cache_delta``) over a retained full export; a delta without a
mark and a mark with pins held must be refused, state untouched.  After
every step at a round boundary, the delta since the mark folded onto the
export taken there is the export now, array for array — tick order,
counts and values — and matches the oracle's diff.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from cache_oracles import CacheTraffic, assert_delta_matches_oracle
from repro.mem.cache import _FAR, CombinedCache
from repro.utils.keys import as_keys
from ssd_oracles import assert_same_arrays

pytestmark = pytest.mark.usefixtures("small_slab")


def key_sets(max_size: int = 64):
    return st.sets(st.integers(0, 95), max_size=max_size).map(sorted)


class MemPSTraffic(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(4, 40),
        lru_fraction=st.sampled_from([0.3, 0.5, 0.7]),
    )
    def build(self, capacity, lru_fraction):
        self.t = CacheTraffic(capacity, lru_fraction)

    # -- a round ---------------------------------------------------------
    @precondition(lambda self: self.t.at_boundary)
    @rule(keys=key_sets(), fit=st.booleans())
    def resolve(self, keys, fit):
        """Resolve → pin → insert misses pinned.  ``fit`` trims the
        union to the LRU tier; without it an oversubscribed union must
        be refused, cache untouched."""
        if fit:
            keys = keys[: self.t.cache.lru_capacity]
        self.t.resolve(keys)

    @precondition(lambda self: not self.t.at_boundary)
    @rule(mask=st.lists(st.booleans(), max_size=8))
    def write(self, mask):
        self.t.write(mask)

    @precondition(lambda self: not self.t.at_boundary)
    @rule()
    def end_round(self):
        self.t.end_round()

    # -- any time --------------------------------------------------------
    @rule(keys=key_sets(16))
    def peek(self, keys):
        self.t.peek(keys)

    @rule(keys=key_sets())
    def insert_unpinned(self, keys):
        self.t.insert_unpinned(keys)

    # -- round boundaries ------------------------------------------------
    @precondition(lambda self: self.t.at_boundary)
    @rule()
    def snapshot_roundtrip(self):
        self.t.snapshot_roundtrip()

    @precondition(lambda self: self.t.at_boundary)
    @rule()
    def mark_snapshot(self):
        """A snapshot commits: retain its export, mark the cache there."""
        self.t.take_base()

    @precondition(lambda self: self.t.at_boundary and self.t.base is not None)
    @rule()
    def delta_roundtrip(self):
        """``export_delta()`` since the mark, against the oracle's diff
        of the retained base: exact, and sound."""
        self.t.delta_roundtrip()

    @precondition(lambda self: self.t.at_boundary and self.t.base is None)
    @rule()
    def delta_without_a_mark(self):
        self.t.assert_unmarked(self.t.cache)

    @precondition(
        lambda self: not self.t.at_boundary and self.t.cache.pinned_count()
    )
    @rule()
    def mark_mid_round(self):
        self.t.mark_mid_round()

    # -- after every step --------------------------------------------------
    @invariant()
    def tier_ticks_are_unique(self):
        """The premise the cache's default sorts rest on: no two rows of
        a tier share a tick, so ``_tier_rows`` is the stable order."""
        t = getattr(self, "t", None)
        if t is None:
            return
        for order in (t.cache._tick, t.cache._ftick):
            rows = np.flatnonzero(order < _FAR)
            assert np.unique(order[rows]).size == rows.size
            stable = rows[np.argsort(order[rows], kind="stable")]
            assert np.array_equal(t.cache._tier_rows(order), stable)

    @invariant()
    def delta_folds_to_the_export(self):
        t = getattr(self, "t", None)
        if t is None or not t.at_boundary or t.base is None:
            return
        delta = t.cache.export_delta()
        folded = t.cache.fold_delta(t.base, delta)
        assert_same_arrays(folded, CombinedCache.export_state(t.cache))
        assert_delta_matches_oracle(
            t.cache, delta, t.base, written=as_keys(sorted(t.dirty))
        )


TestMemPSTraffic = MemPSTraffic.TestCase
TestMemPSTraffic.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_the_model_reaches_every_regime():
    """The generated traffic is only worth its parity checks if it gets
    to the hard places: promotions into a full LRU, flushes to the SSD,
    SSD read-backs, spill-through, a refused resolve, a slab grown
    through several sizes."""
    rng = np.random.default_rng(0)
    t = CacheTraffic(16, 0.5)
    seen = dict.fromkeys(["refused", "promoted", "flushed", "read_back"], 0)
    slab_sizes = {t.cache._keys.size}
    for round_ in range(60):
        if round_ % 3 == 0:  # unpinned inserts demote the last round's keys
            t.insert_unpinned(rng.choice(np.arange(64, 96), size=5, replace=False))
            slab_sizes.add(t.cache._keys.size)
        keys = rng.choice(64, size=int(rng.integers(1, 9)), replace=False)
        lfu_before = set(t.cache.ref.lfu._data)
        ssd_before = len(t.ssd)
        assert t.resolve(keys)
        seen["promoted"] += len(lfu_before & set(keys.tolist()))
        seen["read_back"] += sum(k in t.ssd for k in keys.tolist())
        seen["flushed"] += len(t.ssd) - ssd_before
        t.write([True])
        t.end_round()
        slab_sizes.add(t.cache._keys.size)
    assert sorted(slab_sizes) == [1, 8, 16]  # doubled, stopped at capacity
    assert not t.resolve(np.arange(9))  # 9 keys, 8 LRU rows
    seen["refused"] += 1
    assert all(seen.values()), seen
