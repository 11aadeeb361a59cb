"""LFU mixed-run admission under eviction pressure.

The PR-5 planner cut any run where a resident overwrite collided with an
eviction storm, because the static pool of ``_greedy_evictions`` cannot
see mid-run frequency bumps.  The mixed-run extension models each bump
as an arrival at its post-bump priority, so prefetch-shaped traces —
re-dumping hot resident keys interleaved with a miss storm of fresh keys
— stay collision-free.  Exactness is checked against the scalar replay
(the cache's own ``get``/``put`` looped per key on a twin).
"""

import numpy as np
import pytest

from cache_oracles import replay_get, replay_put
from repro.mem.cache import LFUCache


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_for(keys, dim=2, salt=0.0):
    out = np.repeat(
        np.asarray(keys, dtype=np.float32)[:, None] + salt, dim, axis=1
    )
    return out


def pair(capacity, dim=2):
    return LFUCache(capacity, value_dim=dim), LFUCache(capacity, value_dim=dim)


def assert_same_state(fast: LFUCache, oracle: LFUCache):
    # keys() is tick-ordered, so this also compares recency structure.
    assert fast.keys() == oracle.keys()
    for k in oracle.keys():
        assert fast.frequency(k) == oracle.frequency(k), k


def put_both(fast, oracle, keys, vals, **kw):
    fk, fv = fast.put_batch(keys, vals, **kw)
    ok, ov = replay_put(oracle, keys, vals, **kw)
    assert np.array_equal(fk, ok)
    assert np.array_equal(fv, ov)
    assert_same_state(fast, oracle)


class TestMixedRunExtension:
    def test_prefetch_shaped_trace_stays_collision_free(self):
        """Hot residents re-dumped inside a miss storm: zero cuts."""
        fast, oracle = pair(32)
        base = keys_of(range(32))
        put_both(fast, oracle, base, vals_for(base))
        hot = keys_of(range(8))
        for _ in range(3):  # make the residents clearly hot
            fast.get_batch(hot)
            replay_get(oracle, hot)
        # The prefetch shape: predicted-miss pulls (fresh keys, eviction
        # storm) interleaved with re-dumps of hot resident keys.
        trace = np.empty(24, dtype=np.uint64)
        trace[0::3] = hot
        trace[1::3] = keys_of(range(100, 108))
        trace[2::3] = keys_of(range(200, 208))
        runs_before = fast.admission_runs
        put_both(fast, oracle, trace, vals_for(trace, salt=0.5))
        assert fast.collision_splits == 0
        # The whole trace went through as one admission run.
        assert fast.admission_runs == runs_before + 1

    def test_bumped_resident_evicted_later_flushes_new_value(self):
        """A resident overwritten early can still be evicted later in
        the same run; the flush must carry the batch's new value."""
        fast, oracle = pair(4)
        base = keys_of([0, 1, 2, 3])
        put_both(fast, oracle, base, vals_for(base))
        # Key 0 is overwritten (freq→2) then 5 fresh keys storm the
        # 4-slot cache: sequential order evicts 1,2,3 (freq 1), then the
        # freq-2 items — including bumped key 0 with its NEW value.
        trace = keys_of([0, 10, 11, 12, 13, 14])
        put_both(fast, oracle, trace, vals_for(trace, salt=9.0))

    def test_unsafe_run_still_cut_exactly(self):
        """When every pool candidate is at least as hot as a resident
        that an earlier arrival's eviction could reach, pre-bump safety
        fails and the planner falls back to cutting — exactness over
        speed."""
        fast, oracle = pair(4)
        base = keys_of([0, 1, 2, 3])
        put_both(fast, oracle, base, vals_for(base))
        # heat everything except key 0
        fast.get_batch(keys_of([1, 2, 3]))
        replay_get(oracle, keys_of([1, 2, 3]))
        # Arrival 10 triggers an eviction whose only victim candidate
        # cheaper than resident 0 is... nothing — key 0 IS the cache
        # minimum, so its overwrite at position 1 is not pre-bump safe.
        runs_before = fast.admission_runs
        trace = keys_of([10, 0, 11, 12, 13])
        put_both(fast, oracle, trace, vals_for(trace, salt=3.0))
        # The run was cut (two admission runs).
        assert fast.admission_runs == runs_before + 2

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_oracle_parity(self, seed):
        """Random mixed traces: flush pairs, tick order, and frequencies
        match the scalar replay bit-for-bit at every step."""
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(4, 24))
        fast, oracle = pair(capacity)
        universe = np.arange(3 * capacity, dtype=np.uint64)
        for _ in range(10):
            n = int(rng.integers(1, 2 * capacity))
            batch = rng.choice(universe, size=n, replace=True)
            if rng.random() < 0.4:  # sometimes heat a few residents
                resident = keys_of(fast.keys()[: capacity // 2])
                if resident.size:
                    fast.get_batch(resident)
                    replay_get(oracle, resident)
            put_both(
                fast,
                oracle,
                batch,
                vals_for(batch, salt=float(rng.integers(0, 100))),
                freq=int(rng.integers(1, 4)),
            )

    def test_mixed_runs_count_as_single_admission_run(self):
        fast, _ = pair(8)
        fast.put_batch(keys_of(range(8)), vals_for(keys_of(range(8))))
        runs_before = fast.admission_runs
        trace = keys_of([0, 1, 20, 21, 22, 23, 24, 25, 26, 27])
        fast.put_batch(trace, vals_for(trace, salt=1.0))
        assert fast.admission_runs == runs_before + 1
        assert fast.collision_splits == 0
