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
summing with the free stack to the slab, one index entry per resident —
on a direct-addressed and on an open-addressed index; the model adds the
losslessness check (every key always reads back its last written value,
whatever tiers or SSD round trips it went through), pin count 0 at round
boundaries, and "a refused resolve leaves the cache untouched".  Delta
snapshots go through the tier's own verbs — ``mark_snapshot()`` /
``export_delta()`` — and every delta is held to the base-diffing oracle
(``oracle_cache_delta``) over a retained full export; a delta without a
mark and a mark with pins held must be refused, state untouched.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from cache_oracles import CacheTraffic


def key_sets(max_size: int = 64):
    return st.sets(st.integers(0, 95), max_size=max_size).map(sorted)


class MemPSTraffic(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(4, 40),
        lru_fraction=st.sampled_from([0.3, 0.5, 0.7]),
        direct_addressed=st.booleans(),
    )
    def build(self, capacity, lru_fraction, direct_addressed):
        # Direct-addressed is what a cluster runs; both index kinds
        # must behave identically.
        self.t = CacheTraffic(
            capacity, lru_fraction, key_domain=96 if direct_addressed else None
        )

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
    def take_base(self):
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

    @precondition(lambda self: self.t.at_boundary)
    @rule()
    def flush_all(self):
        self.t.flush_all()


TestMemPSTraffic = MemPSTraffic.TestCase
TestMemPSTraffic.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_the_model_reaches_every_regime():
    """The generated traffic is only worth its parity checks if it gets
    to the hard places: promotions into a full LRU, flushes to the SSD,
    SSD read-backs, spill-through, a refused resolve — on the hashing
    index as well as the direct-addressed one a cluster runs."""
    rng = np.random.default_rng(0)
    t = CacheTraffic(16, 0.5)
    assert not t.cache._index.hash_free
    seen = dict.fromkeys(["refused", "promoted", "flushed", "read_back"], 0)
    for round_ in range(60):
        if round_ % 3 == 0:  # unpinned inserts demote the last round's keys
            t.insert_unpinned(rng.choice(np.arange(64, 96), size=5, replace=False))
        keys = rng.choice(64, size=int(rng.integers(1, 9)), replace=False)
        lfu_before = set(t.cache.ref.lfu._data)
        ssd_before = len(t.ssd)
        assert t.resolve(keys)
        seen["promoted"] += len(lfu_before & set(keys.tolist()))
        seen["read_back"] += sum(k in t.ssd for k in keys.tolist())
        seen["flushed"] += len(t.ssd) - ssd_before
        t.write([True])
        t.end_round()
    assert not t.resolve(np.arange(9))  # 9 keys, 8 LRU rows
    seen["refused"] += 1
    assert all(seen.values()), seen
