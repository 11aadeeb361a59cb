"""Parity on the traffic that exists, generated.

``MemPS`` talks to its cache in one shape: resolve a unique union in
tier order, pin the hits, insert the misses pinned, read / write / touch
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
on a direct-addressed and on an open-addressed index, with and without
the carry-over; the model adds the losslessness check (every key always
reads back its last written value, whatever tiers or SSD round trips it
went through), pin count 0 at round boundaries, and "a refused resolve
leaves the cache untouched".
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

#: in-flight rounds at once — current round + a depth-3 window
MAX_IN_FLIGHT = 3


def key_sets(max_size: int = 64):
    return st.sets(st.integers(0, 95), max_size=max_size).map(sorted)


class MemPSTraffic(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(4, 40),
        lru_fraction=st.sampled_from([0.3, 0.5, 0.7]),
        direct_addressed=st.booleans(),
    )
    def build(self, capacity, lru_fraction, direct_addressed):
        # Direct-addressed is what a cluster runs (the carry-over is
        # ignored there); open-addressed, ``carry`` really carries.
        self.t = CacheTraffic(
            capacity, lru_fraction, key_domain=96 if direct_addressed else None
        )

    # -- a round ---------------------------------------------------------
    @precondition(lambda self: len(self.t.in_flight) < MAX_IN_FLIGHT)
    @rule(keys=key_sets(), carry=st.booleans(), fit=st.booleans())
    def resolve(self, keys, carry, fit):
        """Resolve → pin → insert misses pinned.  ``fit`` trims the
        union to what is guaranteed to fit beside the pins held; without
        it an oversubscribed union must be refused, cache untouched."""
        if fit:
            keys = keys[: self.t.room()]
        self.t.resolve(keys, carry=carry)

    @precondition(lambda self: self.t.in_flight)
    @rule(which=st.integers(0, 2), mask=st.lists(st.booleans(), max_size=8))
    def write(self, which, mask):
        self.t.write(which, mask)

    @precondition(lambda self: self.t.in_flight)
    @rule(which=st.integers(0, 2))
    def touch(self, which):
        self.t.touch(which)

    @precondition(lambda self: self.t.in_flight)
    @rule(which=st.integers(0, 2))
    def end_round(self, which):
        self.t.end_round(which)

    @precondition(lambda self: self.t.in_flight)
    @rule()
    def abort(self):
        self.t.abort()

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
    @rule(by_dirty_keys=st.booleans())
    def delta_roundtrip(self, by_dirty_keys):
        self.t.delta_roundtrip(by_dirty_keys=by_dirty_keys)

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
    SSD read-backs, spill-through, a refused resolve — and, on the
    hashing index this cache has, a carried-over key that was demoted
    since (still in its old row, but a promotion now, not an LRU hit)."""
    rng = np.random.default_rng(0)
    t = CacheTraffic(16, 0.5)
    assert not t.cache._index.hash_free
    seen = dict.fromkeys(
        ["refused", "promoted", "flushed", "read_back", "carried_demoted"], 0
    )
    for round_ in range(60):
        if round_ % 3 == 0:  # unpinned inserts demote the last round's keys
            t.insert_unpinned(rng.choice(np.arange(64, 96), size=5, replace=False))
        keys = rng.choice(64, size=int(rng.integers(1, 9)), replace=False)
        lfu_before = set(t.cache.ref.lfu._data)
        ssd_before = len(t.ssd)
        carry = bool(round_ % 2) or round_ % 3 == 0
        if carry and t.prev[0] is not None:
            seen["carried_demoted"] += len(
                lfu_before & set(keys.tolist()) & set(t.prev[0].tolist())
            )
        ok = t.resolve(keys, carry=carry)
        assert ok
        seen["promoted"] += len(lfu_before & set(keys.tolist()))
        seen["read_back"] += sum(k in t.ssd for k in keys.tolist())
        seen["flushed"] += len(t.ssd) - ssd_before
        t.write(0, [True])
        t.end_round()
    assert not t.resolve(np.arange(9), carry=False)  # 9 keys, 8 LRU rows
    seen["refused"] += 1
    assert all(seen.values()), seen
