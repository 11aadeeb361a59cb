"""Per-key cache oracles: the executable specification of the MEM tier.

Two independent statements of what the slab caches in
:mod:`repro.mem.cache` must do, both test-only:

* :func:`replay_get` / :func:`replay_put` (and :class:`ScalarCombinedCache`,
  which routes a whole :class:`~repro.mem.cache.CombinedCache` through
  them) — "batch op" *defined* as the public scalar ``get``/``put``
  looped in batch order on a twin cache.  The bulk admission engine must
  be indistinguishable from this: same values, flush pairs, eviction
  order and statistics.
* ``DictLRUCache`` / ``DictLFUCache`` / ``DictCombinedCache`` — the
  original dict-of-ndarray caches this repo shipped with before the MEM
  tier was vectorized (one dict probe per key), sharing no code with the
  slab implementation.  ``tests/store/test_cache_parity.py`` and
  ``tests/mem/test_admission_stress.py`` replay recorded and randomized
  traces through both; ``benchmarks/test_store_microbench.py`` uses them
  as the wall-clock baseline.
"""

from __future__ import annotations

import numpy as np

from repro.mem.cache import CacheStats, CombinedCache
from repro.utils.keys import as_keys

__all__ = [
    "replay_get",
    "replay_put",
    "ScalarCombinedCache",
    "use_scalar_caches",
    "DictLRUCache",
    "DictLFUCache",
    "DictCombinedCache",
]


def replay_get(cache, keys) -> tuple[np.ndarray, np.ndarray]:
    """``get_batch`` by definition: scalar ``get`` looped in batch order."""
    keys = as_keys(keys)
    values = np.zeros((keys.size, cache.value_dim or 0), dtype=np.float32)
    hit = np.zeros(keys.size, dtype=bool)
    for i, k in enumerate(keys.tolist()):
        v = cache.get(k)
        if v is not None:
            values[i], hit[i] = v, True
    return values, hit


def replay_put(cache, keys, values, **kw) -> tuple[np.ndarray, np.ndarray]:
    """``put_batch`` by definition: scalar ``put`` looped in batch order."""
    values = np.asarray(values, dtype=np.float32)
    pairs: list = []
    for k, v in zip(as_keys(keys).tolist(), values):
        pairs.extend(cache.put(k, v, **kw))
    if not pairs:
        return as_keys([]), np.zeros((0, values.shape[1]), dtype=np.float32)
    return as_keys([k for k, _ in pairs]), np.stack([v for _, v in pairs])


class ScalarCombinedCache(CombinedCache):
    """A :class:`CombinedCache` whose batch ops are the scalar replay.

    Drop-in twin for cluster-level parity: swap it in for a node's
    ``mem_ps.cache`` and every admission decision is made key by key.
    ``prefetch_resolve`` replays the access order the bulk path commits
    to (LRU hits, then LFU promotions, then misses) and reports no rows,
    so the MEM-PS re-resolves them through the index.
    """

    def get_batch(self, keys, *, assume_unique=False):
        return replay_get(self, keys)

    def put_batch(
        self, keys, values, *, pin=False, assume_unique=False, assume_absent=False
    ):
        return replay_put(self, keys, values, pin=pin)

    def prefetch_resolve(self, keys, prev_keys=None, prev_rows=None):
        keys = as_keys(keys)
        in_lru, in_lfu = self.residency(keys)
        order = np.argsort(np.where(in_lru, 0, np.where(in_lfu, 1, 2)), kind="stable")
        hit = np.zeros(keys.size, dtype=bool)
        hit[order] = replay_get(self, keys[order])[1]
        return hit, None


def use_scalar_caches(cluster) -> None:
    """Turn every node's (still empty) MEM cache into its per-key twin."""
    for node in cluster.nodes:
        node.mem_ps.cache.__class__ = ScalarCombinedCache


class DictLRUCache:
    """Seed LRU cache: insertion-ordered dict, per-key operations."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: dict[int, np.ndarray] = {}
        self._pinned: set[int] = set()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def get(self, key: int) -> np.ndarray | None:
        val = self._data.pop(key, None)
        if val is None:
            return None
        self._data[key] = val
        return val

    def peek(self, key: int) -> np.ndarray | None:
        return self._data.get(key)

    def put(self, key: int, value: np.ndarray, *, pin: bool = False) -> list:
        self._data.pop(key, None)
        self._data[key] = value
        if pin:
            self._pinned.add(key)
        return self.evict_overflow()

    def evict_overflow(self) -> list:
        evicted = []
        if len(self._data) <= self.capacity:
            return evicted
        for key in list(self._data):
            if len(self._data) - len(evicted) <= self.capacity:
                break
            if key in self._pinned:
                continue
            evicted.append((key, self._data[key]))
        for key, _ in evicted:
            del self._data[key]
        if len(self._data) > self.capacity:
            raise RuntimeError(
                "cache over capacity with all residents pinned — the pinned "
                "working set must fit in memory (paper Section 5)"
            )
        return evicted

    def pin(self, key: int) -> None:
        if key not in self._data:
            raise KeyError(f"cannot pin absent key {key}")
        self._pinned.add(key)

    def unpin(self, key: int) -> None:
        self._pinned.discard(key)

    def pinned_count(self) -> int:
        return len(self._pinned)

    def keys(self) -> list[int]:
        return list(self._data)


class DictLFUCache:
    """Seed LFU cache: O(1) frequency buckets, per-key operations."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: dict[int, np.ndarray] = {}
        self._freq: dict[int, int] = {}
        self._buckets: dict[int, dict[int, None]] = {}
        self._min_freq = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def _bump(self, key: int) -> None:
        f = self._freq[key]
        bucket = self._buckets[f]
        del bucket[key]
        if not bucket:
            del self._buckets[f]
            if self._min_freq == f:
                self._min_freq = f + 1
        self._freq[key] = f + 1
        self._buckets.setdefault(f + 1, {})[key] = None

    def get(self, key: int) -> np.ndarray | None:
        if key not in self._data:
            return None
        self._bump(key)
        return self._data[key]

    def frequency(self, key: int) -> int:
        return self._freq.get(key, 0)

    def put(self, key: int, value: np.ndarray, *, freq: int = 1) -> list:
        if freq < 1:
            raise ValueError("freq must be >= 1")
        if key in self._data:
            self._data[key] = value
            self._bump(key)
            return []
        evicted = []
        if len(self._data) >= self.capacity:
            bucket = self._buckets[self._min_freq]
            victim = next(iter(bucket))
            del bucket[victim]
            if not bucket:
                del self._buckets[self._min_freq]
            evicted.append((victim, self._data.pop(victim)))
            del self._freq[victim]
        self._data[key] = value
        self._freq[key] = freq
        self._buckets.setdefault(freq, {})[key] = None
        self._min_freq = min(self._buckets)
        return evicted

    def pop(self, key: int) -> np.ndarray | None:
        if key not in self._data:
            return None
        f = self._freq.pop(key)
        bucket = self._buckets[f]
        del bucket[key]
        if not bucket:
            del self._buckets[f]
            if self._min_freq == f:
                self._min_freq = min(self._buckets) if self._buckets else 0
        return self._data.pop(key)

    def keys(self) -> list[int]:
        return list(self._data)


class DictCombinedCache:
    """Seed LRU→LFU combined policy, per-key operations throughout."""

    def __init__(
        self, capacity: int, *, lru_fraction: float = 0.5, value_dim: int = 1
    ) -> None:
        if capacity < 2:
            raise ValueError("combined cache needs capacity >= 2")
        if not 0.0 < lru_fraction < 1.0:
            raise ValueError("lru_fraction must be in (0, 1)")
        lru_cap = max(1, int(capacity * lru_fraction))
        lfu_cap = max(1, capacity - lru_cap)
        self.lru = DictLRUCache(lru_cap)
        self.lfu = DictLFUCache(lfu_cap)
        self.value_dim = value_dim
        self.stats = CacheStats()
        self._counts: dict[int, int] = {}
        self._pending_flush: list = []

    def __len__(self) -> int:
        return len(self.lru) + len(self.lfu)

    @property
    def capacity(self) -> int:
        return self.lru.capacity + self.lfu.capacity

    # ------------------------------------------------------------------
    def _demote(self, evicted_from_lru: list) -> list:
        flushed = []
        for key, value in evicted_from_lru:
            flushed.extend(
                self.lfu.put(key, value, freq=self._counts.pop(key, 1))
            )
        for key, _ in flushed:
            self._counts.pop(key, None)
        return flushed

    def get(self, key: int) -> np.ndarray | None:
        val = self.lru.get(key)
        if val is not None:
            self.stats.hits += 1
            self._counts[key] = self._counts.get(key, 1) + 1
            return val
        freq = self.lfu.frequency(key)
        val = self.lfu.pop(key)
        if val is not None:
            self.stats.hits += 1
            self._counts[key] = freq + 1
            self._pending_flush.extend(self._demote(self.lru.put(key, val)))
            return val
        self.stats.misses += 1
        return None

    def put(self, key: int, value: np.ndarray, *, pin: bool = False) -> list:
        if key in self.lfu:
            freq = self.lfu.frequency(key)
            self.lfu.pop(key)
            self._counts[key] = freq + 1
        else:
            self._counts[key] = self._counts.get(key, 0) + 1
        evicted = self.lru.put(key, value, pin=pin)
        return self._demote(evicted)

    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys = as_keys(keys)
        values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        hit = np.zeros(keys.size, dtype=bool)
        for i, k in enumerate(keys):
            v = self.get(int(k))
            if v is not None:
                values[i] = v
                hit[i] = True
        return values, hit

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray, *, pin: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        flushed = []
        for i, k in enumerate(keys):
            flushed.extend(self.put(int(k), values[i], pin=pin))
        return self._pairs(flushed)

    def _pairs(self, flushed: list) -> tuple[np.ndarray, np.ndarray]:
        if not flushed:
            return (
                as_keys([]),
                np.zeros((0, self.value_dim), dtype=np.float32),
            )
        fk = as_keys([k for k, _ in flushed])
        fv = np.stack([v for _, v in flushed]).astype(np.float32)
        return fk, fv

    def take_pending_flush(self) -> tuple[np.ndarray, np.ndarray]:
        out = self._pairs(self._pending_flush)
        self._pending_flush.clear()
        return out

    def unpin_batch(self, keys: np.ndarray) -> None:
        for k in as_keys(keys):
            self.lru.unpin(int(k))

    def settle_overflow(self) -> tuple[np.ndarray, np.ndarray]:
        return self._pairs(self._demote(self.lru.evict_overflow()))

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = [(k, self.lru._data[k]) for k in self.lru.keys()]
        pairs += [(k, self.lfu._data[k]) for k in self.lfu.keys()]
        fk, fv = self._pairs(pairs)
        order = np.argsort(fk)
        return fk[order], fv[order]
