"""Randomized collision-interleaving stress for the admission engine.

The bulk-exact admission plan must be *sequential-equivalent* under the
nastiest interleavings: cache capacity far below the batch size,
duplicate keys inside one batch, pinned rows blocking the eviction
frontier, and promotion/demotion storms.  Every trial drives the slab
caches and the seed per-key reference (``tests/cache_oracles.py``) with
an identical operation stream and asserts bit-identical contents,
eviction order, flush pairs, and statistics.

A third cache — the slab cache driven key by key through its own scalar
``get``/``put`` (``ScalarCombinedCache``) — is spot-checked against the
bulk engine on a subset of trials, pinning down eviction *order* too.
"""

import numpy as np
import pytest

from cache_oracles import (
    DictCombinedCache,
    ScalarCombinedCache,
    replay_get,
    replay_put,
)
from repro.mem.cache import CombinedCache, LFUCache, LRUCache

N_TRIALS = 220


def _flush_equal(a, b, ctx=""):
    assert np.array_equal(a[0], b[0]), f"{ctx}: flush keys diverge"
    assert np.array_equal(a[1], b[1]), f"{ctx}: flush values diverge"


def _items_equal(a, b, ctx=""):
    ka, va = a.items()
    kb, vb = b.items()
    assert np.array_equal(ka, kb), f"{ctx}: resident keys diverge"
    assert np.array_equal(va, vb), f"{ctx}: resident values diverge"


def _trial_ops(
    rng: np.random.Generator, key_space: int, batch_hi: int, lru_cap: int
):
    """One trial's operation stream: heavy pressure, duplicates, pins."""
    ops = []
    pinned: set[int] = set()
    pin_budget = max(1, lru_cap // 2)
    for _ in range(int(rng.integers(6, 14))):
        kind = rng.choice(
            ["get_batch", "put_batch", "pin_put", "unpin", "settle"],
            p=[0.3, 0.35, 0.15, 0.12, 0.08],
        )
        n = int(rng.integers(1, batch_hi))
        # ~30% of batches carry duplicate keys (sampled with replacement).
        replace = bool(rng.random() < 0.3) or n > key_space
        keys = rng.choice(key_space, size=n, replace=replace).astype(np.uint64)
        if kind == "get_batch":
            ops.append(("get_batch", keys))
        elif kind in ("put_batch", "pin_put"):
            pin = kind == "pin_put"
            if pin:
                # Pinned working sets must fit the LRU tier (the paper's
                # Section 5 contract) and be duplicate-free like a real
                # working set; budget them like the MEM-PS does.
                room = pin_budget - len(pinned)
                keys = np.unique(keys)[: max(0, room)]
                if keys.size == 0:
                    continue
                pinned.update(keys.tolist())
            vals = rng.normal(size=(keys.size, 2)).astype(np.float32)
            ops.append(("put_batch", (keys, vals, pin)))
        elif kind == "unpin":
            ops.append(("unpin", np.array(sorted(pinned), dtype=np.uint64)))
            pinned.clear()
        else:
            ops.append(("settle", None))
    ops.append(("unpin", np.array(sorted(pinned), dtype=np.uint64)))
    ops.append(("settle", None))
    return ops


def _drive(cache, ops):
    """Replay ``ops``; returns the trial's observable output trace."""
    trace = []
    for op, payload in ops:
        if op == "get_batch":
            values, hit = cache.get_batch(payload)
            trace.append((values.copy(), hit.copy()))
            trace.append(cache.take_pending_flush())
        elif op == "put_batch":
            keys, vals, pin = payload
            trace.append(cache.put_batch(keys, vals, pin=pin))
        elif op == "unpin":
            cache.unpin_batch(payload)
        else:
            trace.append(cache.settle_overflow())
    return trace


def _assert_traces_equal(ta, tb, seed):
    assert len(ta) == len(tb)
    for i, (a, b) in enumerate(zip(ta, tb)):
        ctx = f"seed {seed}, output {i}"
        assert np.array_equal(a[0], b[0]), ctx
        assert np.array_equal(a[1], b[1]), ctx


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_admission_matches_per_key_reference(trial):
    """capacity ≪ batch, duplicates, pins: bit-identical to the seed."""
    rng = np.random.default_rng(1000 + trial)
    capacity = int(rng.integers(8, 40))
    lru_fraction = float(rng.uniform(0.3, 0.7))
    key_space = int(rng.integers(capacity, capacity * 6))
    batch_hi = max(3, capacity * 2)
    new = CombinedCache(capacity, lru_fraction=lru_fraction, value_dim=2)
    old = DictCombinedCache(capacity, lru_fraction=lru_fraction, value_dim=2)
    ops = _trial_ops(rng, key_space, batch_hi, new.lru.capacity)
    ref_trace = _drive(old, ops)
    _assert_traces_equal(_drive(new, ops), ref_trace, 1000 + trial)
    _items_equal(new, old, f"trial {trial}")
    assert len(new) == len(old)
    assert new.stats.hits == old.stats.hits
    assert new.stats.misses == old.stats.misses
    if trial % 10 == 0:
        # Spot-check the slab cache's own scalar ops against the bulk
        # engine: export_state pins down eviction *order*, not just
        # contents.
        oracle = ScalarCombinedCache(
            capacity, lru_fraction=lru_fraction, value_dim=2
        )
        _assert_traces_equal(_drive(oracle, ops), ref_trace, trial)
        state_a, state_b = new.export_state(), oracle.export_state()
        for field in state_a:
            assert np.array_equal(state_a[field], state_b[field]), field


@pytest.mark.parametrize("seed", range(40))
def test_standalone_tiers_match_scalar_replay(seed):
    """LRU and LFU batch admission vs their own per-key loops."""
    rng = np.random.default_rng(2000 + seed)
    capacity = int(rng.integers(4, 24))
    key_space = capacity * 4

    bulk_lru = LRUCache(capacity, value_dim=2)
    ref_lru = LRUCache(capacity, value_dim=2)
    bulk_lfu = LFUCache(capacity, value_dim=2)
    ref_lfu = LFUCache(capacity, value_dim=2)
    for _ in range(8):
        n = int(rng.integers(1, capacity * 2))
        keys = rng.integers(0, key_space, size=n).astype(np.uint64)
        vals = rng.normal(size=(n, 2)).astype(np.float32)
        if rng.random() < 0.25 and bulk_lru.size:
            pin_key = rng.choice(np.asarray(bulk_lru.keys()))
            bulk_lru.pin_batch(np.array([pin_key], dtype=np.uint64))
            ref_lru.pin_batch(np.array([pin_key], dtype=np.uint64))
        _flush_equal(
            bulk_lru.put_batch(keys, vals), replay_put(ref_lru, keys, vals)
        )
        _flush_equal(
            bulk_lfu.put_batch(keys, vals), replay_put(ref_lfu, keys, vals)
        )
        probe = rng.integers(0, key_space, size=n).astype(np.uint64)
        va, ha = bulk_lfu.get_batch(probe)
        vb, hb = replay_get(ref_lfu, probe)
        assert np.array_equal(ha, hb) and np.array_equal(va, vb)
        bulk_lru.unpin_batch(keys)
        ref_lru.unpin_batch(keys)
    assert bulk_lru.keys() == ref_lru.keys()  # full recency order
    assert bulk_lfu.keys() == ref_lfu.keys()


def test_collision_splits_are_exercised():
    """The pressure construction actually hits the collision path — a
    promotion storm over a full LRU whose oldest residents are re-read."""
    cache = CombinedCache(12, lru_fraction=0.5, value_dim=1)
    warm = np.arange(12, dtype=np.uint64)
    cache.put_batch(warm, np.zeros((12, 1), np.float32))
    # keys 0..5 are now LFU residents; 6..11 fill the LRU.  Reading the
    # oldest LRU keys interleaved with LFU promotions forces residents
    # into the eviction frontier.
    probe = np.array([6, 0, 7, 1, 8, 2], dtype=np.uint64)
    _, hit = cache.get_batch(probe)
    assert hit.all()
    assert cache.stats.admission_runs + cache.stats.collision_splits > 1
