"""Recorded-trace parity: slab caches vs the seed dict implementation.

The vectorized caches must be *sequential-equivalent*: identical eviction
order, flush pairs, hit/miss statistics, and final contents as the
original per-key implementation (kept in ``tests/cache_oracles.py``)
on any access trace.  These tests replay deterministic recorded traces —
including MEM-PS-shaped pin/absorb/settle cycles under memory pressure —
through both implementations side by side.
"""

import numpy as np
import pytest

from cache_oracles import DictCombinedCache, DictLFUCache, DictLRUCache
from repro.mem.cache import CombinedCache, LFUCache, LRUCache


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def assert_pairs_equal(a: list, b: list, ctx=""):
    assert [k for k, _ in a] == [k for k, _ in b], ctx
    for (_, va), (_, vb) in zip(a, b):
        assert np.array_equal(va, vb), ctx


def assert_flush_equal(fa, fb, ctx=""):
    assert np.array_equal(fa[0], fb[0]), ctx
    assert np.array_equal(fa[1], fb[1]), ctx


def zipf_trace(n_ops: int, n_keys: int, seed: int) -> np.ndarray:
    """A skewed access trace, the workload the combined policy targets."""
    rng = np.random.default_rng(seed)
    ranks = np.minimum(
        n_keys - 1,
        np.floor(np.clip(rng.random(n_ops), 1e-9, None) ** (-1.0 / 0.6)),
    ).astype(np.int64)
    return ranks.astype(np.uint64)


class TestTierParity:
    def test_lru_single_op_trace(self):
        new, old = LRUCache(8), DictLRUCache(8)
        trace = zipf_trace(500, 40, seed=1)
        for i, k in enumerate(trace.tolist()):
            if i % 3 == 0:
                va, vb = new.get(k), old.get(k)
                assert (va is None) == (vb is None)
            else:
                v = np.array([float(i)], dtype=np.float32)
                assert_pairs_equal(new.put(k, v), old.put(k, v), f"op {i}")
        assert new.keys() == old.keys()  # full recency order matches

    def test_lfu_single_op_trace(self):
        new, old = LFUCache(8), DictLFUCache(8)
        trace = zipf_trace(500, 40, seed=2)
        for i, k in enumerate(trace.tolist()):
            if i % 3 == 0:
                va, vb = new.get(k), old.get(k)
                assert (va is None) == (vb is None)
            else:
                v = np.array([float(i)], dtype=np.float32)
                assert_pairs_equal(new.put(k, v), old.put(k, v), f"op {i}")
            assert new.frequency(k) == old.frequency(k)
        assert sorted(new.keys()) == sorted(old.keys())


class TestCombinedParity:
    def run_trace(self, new, old, ops):
        for i, (op, payload) in enumerate(ops):
            ctx = f"op {i}: {op}"
            if op == "get":
                va, vb = new.get(payload), old.get(payload)
                assert (va is None) == (vb is None), ctx
                if va is not None:
                    assert np.array_equal(va, vb), ctx
            elif op == "put":
                k, v, pin = payload
                assert_pairs_equal(
                    new.put(k, v, pin=pin), old.put(k, v, pin=pin), ctx
                )
            elif op == "get_batch":
                (va, ha) = new.get_batch(payload)
                (vb, hb) = old.get_batch(payload)
                assert np.array_equal(ha, hb), ctx
                assert np.array_equal(va, vb), ctx
            elif op == "put_batch":
                k, v, pin = payload
                assert_flush_equal(
                    new.put_batch(k, v, pin=pin),
                    old.put_batch(k, v, pin=pin),
                    ctx,
                )
            elif op == "unpin":
                new.unpin_batch(payload)
                old.unpin_batch(payload)
            elif op == "settle":
                assert_flush_equal(new.settle_overflow(), old.settle_overflow(), ctx)
            assert len(new) == len(old), ctx
            assert new.stats.hits == old.stats.hits, ctx
            assert new.stats.misses == old.stats.misses, ctx
            assert_flush_equal(new.take_pending_flush(), old.take_pending_flush(), ctx)
        ia, ib = new.items(), old.items()
        assert np.array_equal(ia[0], ib[0])
        assert np.array_equal(ia[1], ib[1])

    def test_single_op_zipf_trace(self):
        """Per-key gets/puts on a skewed trace: eviction order must match
        through both the LRU→LFU demotion and the LFU→SSD flush."""
        new = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        old = DictCombinedCache(16, lru_fraction=0.5, value_dim=2)
        trace = zipf_trace(800, 60, seed=3)
        ops = []
        for i, k in enumerate(trace.tolist()):
            if i % 2 == 0:
                ops.append(("get", k))
            else:
                v = np.full(2, float(i), dtype=np.float32)
                ops.append(("put", (k, v, False)))
        self.run_trace(new, old, ops)

    def test_mem_ps_shaped_batches_under_pressure(self):
        """The MEM-PS cycle — batched lookup, pinned miss insert, absorb,
        unpin, settle — against a cache much smaller than the stream."""
        new = CombinedCache(64, lru_fraction=0.6, value_dim=2)
        old = DictCombinedCache(64, lru_fraction=0.6, value_dim=2)
        rng = np.random.default_rng(4)
        ops = []
        for round_ in range(30):
            working = np.unique(zipf_trace(48, 300, seed=100 + round_))
            values = rng.normal(size=(working.size, 2)).astype(np.float32)
            ops.append(("get_batch", working))
            ops.append(("put_batch", (working, values, True)))
            updated = values + 1.0
            ops.append(("put_batch", (working, updated, False)))
            ops.append(("unpin", working))
            ops.append(("settle", None))
        self.run_trace(new, old, ops)

    def test_batches_larger_than_the_lru_tier(self):
        """Insert streams that overflow the whole unpinned LRU spill the
        earliest batch positions — in the seed order."""
        new = CombinedCache(20, lru_fraction=0.5, value_dim=1)
        old = DictCombinedCache(20, lru_fraction=0.5, value_dim=1)
        ops = []
        for start in (0, 100, 200):
            keys = np.arange(start, start + 40, dtype=np.uint64)
            vals = np.arange(40, dtype=np.float32).reshape(-1, 1) + start
            ops.append(("put_batch", (keys, vals, False)))
            ops.append(("get_batch", keys[::3]))
        self.run_trace(new, old, ops)

    def test_promotion_heavy_batches(self):
        """Batched gets that promote LFU residents back into a full LRU."""
        new = CombinedCache(12, lru_fraction=0.5, value_dim=1)
        old = DictCombinedCache(12, lru_fraction=0.5, value_dim=1)
        warm = np.arange(12, dtype=np.uint64)
        vals = np.arange(12, dtype=np.float32).reshape(-1, 1)
        ops = [("put_batch", (warm, vals, False))]
        # keys 0.. demoted into the LFU by later inserts; batch-get them.
        more = np.arange(100, 106, dtype=np.uint64)
        ops.append(("put_batch", (more, np.zeros((6, 1), np.float32), False)))
        ops.append(("get_batch", np.arange(0, 8, dtype=np.uint64)))
        ops.append(("get_batch", np.arange(3, 12, dtype=np.uint64)))
        self.run_trace(new, old, ops)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_randomized_mixed_trace(self, seed):
        """Random mixture of every operation, pins included."""
        rng = np.random.default_rng(seed)
        new = CombinedCache(24, lru_fraction=0.4, value_dim=2)
        old = DictCombinedCache(24, lru_fraction=0.4, value_dim=2)
        ops = []
        pinned: set[int] = set()
        for i in range(250):
            kind = rng.choice(["get", "put", "get_batch", "put_batch", "unpin"])
            if kind == "get":
                ops.append(("get", int(rng.integers(0, 80))))
            elif kind == "put":
                pin = bool(rng.random() < 0.15) and len(pinned) < 8
                k = int(rng.integers(0, 80))
                if pin:
                    pinned.add(k)
                v = rng.normal(size=2).astype(np.float32)
                ops.append(("put", (k, v, pin)))
            elif kind == "get_batch":
                n = int(rng.integers(1, 10))
                ks = rng.choice(80, size=n, replace=False).astype(np.uint64)
                ops.append(("get_batch", ks))
            elif kind == "put_batch":
                n = int(rng.integers(1, 10))
                ks = rng.choice(80, size=n, replace=False).astype(np.uint64)
                vs = rng.normal(size=(n, 2)).astype(np.float32)
                ops.append(("put_batch", (ks, vs, False)))
            else:
                ops.append(("unpin", keys_of(sorted(pinned))))
                pinned.clear()
        ops.append(("unpin", keys_of(sorted(pinned))))
        ops.append(("settle", None))
        self.run_trace(new, old, ops)
