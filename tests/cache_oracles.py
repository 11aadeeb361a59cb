"""Per-key cache oracles: the executable specification of the MEM tier.

Three layers, all test-only:

* ``DictLRUCache`` / ``DictLFUCache`` / ``DictCombinedCache`` — the
  original dict-of-ndarray caches this repo shipped with before the MEM
  tier was vectorized (one dict probe per key), sharing no code with the
  slab implementation in :mod:`repro.mem.cache`.
* :class:`ShadowedCombinedCache` — a :class:`CombinedCache` that replays
  every operation key by key on a ``DictCombinedCache`` (lookups in the
  resolve's tier order) and asserts the two agree on hit masks, flush
  pairs *in order*, row identities, both tiers' contents in eviction
  order, replacement metadata, statistics and pins — plus the slab's
  own invariants the seed cannot see (one tier per resident key, tier
  counters + free stack = slab, one index entry per resident, and a
  resident key's row never changing).  Swap it into a cluster with
  :func:`shadow_caches` and the whole training run is checked op by op.
* :class:`CacheTraffic` — the traffic ``MemPS`` sends, as verbs on a
  shadowed cache plus a dict standing in for the SSD: resolve a unique
  union, pin, insert the misses pinned, write through rows, release,
  snapshot.  ``tests/mem/test_cache_traffic.py`` drives it from
  a hypothesis state machine, ``tests/mem/test_admission_stress.py``
  from seeded random streams.

:func:`oracle_cache_delta` is the base-diffing delta export: it diffs
the cache's export against a *retained full export* taken at the mark,
by comparing value slabs or by membership in a caller-supplied write
set, and reads the kept base entries off the two exports (the longest
prefix of each tier that is base entries, in base order, with base
counts and unwritten values) — no ticks.  :func:`oracle_fold_delta`
applies a delta key by key.  Production must equal the oracle's delta
where the write set is exact, and always fold back to its own export.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.errors import TierStateError
from repro.mem.cache import _FAR, CombinedCache
from repro.utils.keys import EMPTY_KEY, as_keys
from ssd_oracles import assert_same_arrays

__all__ = [
    "DictLRUCache",
    "DictLFUCache",
    "DictCombinedCache",
    "ShadowedCombinedCache",
    "shadow_caches",
    "CacheTraffic",
    "oracle_cache_delta",
    "oracle_fold_delta",
    "assert_delta_matches_oracle",
]


def _pairs(flushed: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if not flushed:
        return as_keys([]), np.zeros((0, dim), dtype=np.float32)
    fk = as_keys([k for k, _ in flushed])
    fv = np.stack([v for _, v in flushed]).astype(np.float32)
    return fk, fv


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
        self.stats = SimpleNamespace(hits=0, misses=0)
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
        return _pairs(flushed, self.value_dim)


class ShadowedCombinedCache(CombinedCache):
    """A :class:`CombinedCache` checked op by op against the dict seed.

    Every public operation runs on the slab cache, is replayed per key
    on :attr:`ref` (a ``DictCombinedCache`` with the same tier sizes),
    and the two are compared — outputs first, then the whole resident
    state, then the slab layout (:meth:`_assert_layout`).  Row
    identities are verified where they are minted (resolve, insert), so
    the row ops can translate rows to keys through the slab.
    """

    def __init__(self, capacity, **kwargs) -> None:
        super().__init__(capacity, **kwargs)
        self._new_ref()

    def _new_ref(self) -> None:
        self.ref = DictCombinedCache(2, value_dim=self.value_dim)
        self.ref.lru = DictLRUCache(self.lru_capacity)
        self.ref.lfu = DictLFUCache(self.lfu_capacity)
        #: key -> slab row after the last checked operation (row
        #: stability); reset wherever the slab is rebuilt
        self._row_of: dict[int, int] = {}

    # -- comparison ------------------------------------------------------
    def _ref_state(self) -> dict[str, np.ndarray]:
        """What ``export_state`` must return, read off the dict seed:
        dict order is recency order in the LRU and entry order in the LFU
        (frequencies never change in place — a hit promotes)."""
        ref = self.ref
        lru_keys, lru_values = _pairs(list(ref.lru._data.items()), self.value_dim)
        lfu_keys, lfu_values = _pairs(list(ref.lfu._data.items()), self.value_dim)
        return {
            "lru_keys": lru_keys,
            "lru_values": lru_values,
            "lru_counts": np.array(
                [ref._counts[k] for k in ref.lru._data], dtype=np.int64
            ),
            "lfu_keys": lfu_keys,
            "lfu_values": lfu_values,
            "lfu_freqs": np.array(
                [ref.lfu._freq[k] for k in ref.lfu._data], dtype=np.int64
            ),
            "hits": np.int64(ref.stats.hits),
            "misses": np.int64(ref.stats.misses),
        }

    def _assert_state(self, state: dict[str, np.ndarray], ctx: str) -> None:
        want = self._ref_state()
        assert state.keys() == want.keys(), ctx
        for name, value in want.items():
            assert np.array_equal(state[name], value), (
                f"{ctx}: {name} diverges from the per-key reference\n"
                f"slab {state[name]}\nseed {value}"
            )

    def _assert_agrees(self, ctx: str) -> None:
        """Full-state comparison, valid mid-round (pins lifted around
        the snapshot, then compared as a key set)."""
        pins = self._pinned.copy()
        self._pinned[:] = False
        try:
            state = CombinedCache.export_state(self)
        finally:
            self._pinned[:] = pins
        self._assert_state(state, ctx)
        assert set(self._keys[pins].tolist()) == self.ref.lru._pinned, (
            f"{ctx}: pinned sets diverge"
        )
        assert len(self) == len(self.ref), ctx
        self._assert_layout(ctx)

    def _assert_layout(self, ctx: str) -> None:
        """The slab's own invariants, which the seed cannot see: every
        resident key in exactly one tier, the tier counters and the free
        stack adding up to the slab, the slab within the capacity, one
        index entry per resident — and **row stability**: a key resident
        before and after an operation sits in the same row, whatever
        promotions, demotions and slab growth the operation performed (a
        flush ends the residency; a later insert starts a new one)."""
        in_lru = self._tick < _FAR
        in_lfu = self._freq < _FAR
        occupied = self._keys != EMPTY_KEY
        assert np.array_equal(in_lru ^ in_lfu, occupied), f"{ctx}: tier fields"
        assert not (in_lru & in_lfu).any(), f"{ctx}: a row in both tiers"
        assert np.array_equal(self._ftick < _FAR, in_lfu), f"{ctx}: LFU fields"
        assert np.array_equal(self._freq[in_lfu], self._count[in_lfu]), ctx
        assert not self._pinned[~in_lru].any(), f"{ctx}: pin outside the LRU"
        assert self.n_lru == int(in_lru.sum()) <= self.lru_capacity, ctx
        assert self.n_lfu == int(in_lfu.sum()) <= self.lfu_capacity, ctx
        assert self._n_free + self.n_lru + self.n_lfu == occupied.size, ctx
        assert occupied.size <= self.capacity, f"{ctx}: slab past capacity"
        assert set(self._free[: self._n_free].tolist()) == set(
            np.flatnonzero(~occupied).tolist()
        ), f"{ctx}: free stack"
        rows = np.flatnonzero(occupied)
        assert len(self._index) == rows.size, f"{ctx}: index size"
        at, found = self._index.get(self._keys[rows])
        assert found.all() and np.array_equal(at, rows), f"{ctx}: index rows"
        now = dict(zip(self._keys[rows].tolist(), rows.tolist()))
        moved = {
            k: (r, now[k])
            for k, r in self._row_of.items()
            if k in now and now[k] != r
        }
        assert not moved, f"{ctx}: resident keys changed rows {moved}"
        self._row_of = now

    def _keys_at(self, rows: np.ndarray) -> list[int]:
        return self._keys[rows].tolist()

    # -- lookup ----------------------------------------------------------
    def prefetch_resolve(self, keys):
        keys = as_keys(keys)
        ref = self.ref
        tier = [0 if k in ref.lru else 1 if k in ref.lfu else 2 for k in keys.tolist()]
        # An oversubscribed union raises here, before the seed is touched.
        hit, rows = super().prefetch_resolve(keys)
        want_hit = np.zeros(keys.size, dtype=bool)
        for i in np.argsort(tier, kind="stable").tolist():
            value = ref.get(int(keys[i]))
            if value is not None:
                want_hit[i] = True
                assert np.array_equal(self._values[rows[i]], value)
        assert not ref._pending_flush, "a promotion flushed"
        assert np.array_equal(hit, want_hit), "resolve: hit mask diverges"
        assert np.array_equal(self._keys[rows[hit]], keys[hit])
        assert (rows[~hit] == -1).all()
        self._assert_agrees("resolve")
        return hit, rows

    def peek_batch(self, keys):
        values, found = super().peek_batch(keys)
        for i, k in enumerate(as_keys(keys).tolist()):
            want = self.ref.lru._data.get(k, self.ref.lfu._data.get(k))
            assert found[i] == (want is not None), f"peek: key {k}"
            if want is not None:
                assert np.array_equal(values[i], want), f"peek: key {k}"
        self._assert_agrees("peek (must be read-only)")
        return values, found

    # -- insert ----------------------------------------------------------
    def put_batch(self, keys, values, *, pin=False, assume_unique=False):
        keys = as_keys(keys)
        # A pinned batch that does not fit raises here, seed untouched.
        fk, fv, rows = super().put_batch(keys, values, pin=pin)
        want_k, want_v = self.ref.put_batch(
            keys, np.array(values, dtype=np.float32), pin=pin
        )
        assert np.array_equal(fk, want_k), "insert: flush keys diverge"
        assert np.array_equal(fv, want_v), "insert: flush values diverge"
        landed = rows >= 0
        assert np.array_equal(self._keys[rows[landed]], keys[landed])
        self._assert_agrees("insert")
        return fk, fv, rows

    # -- row ops ---------------------------------------------------------
    def pin_rows(self, rows):
        super().pin_rows(rows)
        for k in self._keys_at(rows):
            self.ref.lru.pin(k)
        self._assert_agrees("pin_rows")

    def unpin_rows(self, rows):
        super().unpin_rows(rows)
        for k in self._keys_at(rows):
            self.ref.lru.unpin(k)
        self._assert_agrees("unpin_rows")

    def update_rows(self, rows, values):
        super().update_rows(rows, values)
        values = np.array(values, dtype=np.float32)
        for k, v in zip(self._keys_at(rows), values):
            assert k in self.ref.lru._data
            self.ref.lru._data[k] = v
        self._assert_agrees("update_rows")

    def values_at(self, rows):
        values = super().values_at(rows)
        for k, v in zip(self._keys_at(rows), values):
            assert np.array_equal(v, self.ref.lru._data[k]), f"values_at: {k}"
        return values

    def pinned_count(self):
        n = super().pinned_count()
        assert n == self.ref.lru.pinned_count()
        return n

    # -- snapshots (a delta folds onto its base, then lands in load_state)
    def export_state(self):
        state = super().export_state()
        self._assert_state(state, "export_state")
        return state

    def load_state(self, state):
        super().load_state(state)
        self._new_ref()
        ref = self.ref
        for k, v, c in zip(
            state["lru_keys"].tolist(), state["lru_values"], state["lru_counts"]
        ):
            assert not ref.lru.put(k, np.array(v, dtype=np.float32))
            ref._counts[k] = int(c)
        for k, v, f in zip(
            state["lfu_keys"].tolist(), state["lfu_values"], state["lfu_freqs"]
        ):
            assert not ref.lfu.put(k, np.array(v, dtype=np.float32), freq=int(f))
        ref.stats.hits = int(state["hits"])
        ref.stats.misses = int(state["misses"])
        self._assert_agrees("load_state")


def shadow_caches(cluster) -> None:
    """Shadow every node's (still empty) MEM cache on the dict seed."""
    for node in cluster.nodes:
        cache = node.mem_ps.cache
        assert len(cache) == 0
        cache.__class__ = ShadowedCombinedCache
        cache._new_ref()


def oracle_cache_delta(
    cache: CombinedCache,
    base: dict[str, np.ndarray],
    *,
    dirty_keys: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """``cache``'s delta against ``base``, a prior ``export_state()``.

    A row is *written* when its key is absent from the base or — with
    ``dirty_keys`` (the union of keys written since the base) — in that
    set, without it when its value differs from the base's (a key's base
    value is tier-independent: a promotion or demotion moves no value).
    Per tier, the kept entries are the longest prefix of the tier that
    are entries of the same base tier, in base order, with their base
    count and unwritten; the rest ship keys, counts, a packed written
    mask and the written rows' values.
    """
    now = CombinedCache.export_state(cache)
    base_value = {
        int(k): np.asarray(v, dtype=np.float32)
        for tier in ("lru", "lfu")
        for k, v in zip(as_keys(base[f"{tier}_keys"]).tolist(), base[f"{tier}_values"])
    }
    dirty = set() if dirty_keys is None else set(as_keys(dirty_keys).tolist())

    def written(key: int, value: np.ndarray) -> bool:
        if key not in base_value:
            return True
        if dirty_keys is not None:
            return key in dirty
        return not np.array_equal(value, base_value[key])

    delta: dict[str, np.ndarray] = {}
    for tier, meta in (("lru", "lru_counts"), ("lfu", "lfu_freqs")):
        keys = as_keys(now[f"{tier}_keys"])
        base_pos = {k: i for i, k in enumerate(as_keys(base[f"{tier}_keys"]).tolist())}
        kept = np.zeros(len(base_pos), dtype=bool)
        cut, last = 0, -1
        for k, c, v in zip(keys.tolist(), now[meta].tolist(), now[f"{tier}_values"]):
            pos = base_pos.get(k, -1)
            if pos <= last or int(base[meta][pos]) != c or written(k, v):
                break
            kept[pos] = True
            cut, last = cut + 1, pos
        ship = np.array(
            [written(k, v) for k, v in zip(keys[cut:].tolist(), now[f"{tier}_values"][cut:])],
            dtype=bool,
        )
        delta[f"{tier}_kept"] = np.packbits(kept)
        delta[f"{tier}_keys"] = keys[cut:]
        delta[meta] = now[meta][cut:]
        delta[f"{tier}_dirty"] = np.packbits(ship)
        delta[f"{tier}_values"] = now[f"{tier}_values"][cut:][ship]
    delta["hits"] = now["hits"]
    delta["misses"] = now["misses"]
    return delta


def oracle_fold_delta(
    base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """The export a delta describes, applied to its base key by key."""
    base_value = {
        int(k): np.asarray(v, dtype=np.float32)
        for tier in ("lru", "lfu")
        for k, v in zip(as_keys(base[f"{tier}_keys"]).tolist(), base[f"{tier}_values"])
    }
    out: dict[str, np.ndarray] = {}
    for tier, meta in (("lru", "lru_counts"), ("lfu", "lfu_freqs")):
        base_keys = as_keys(base[f"{tier}_keys"]).tolist()
        kept = np.unpackbits(delta[f"{tier}_kept"])[: len(base_keys)].tolist()
        tail = as_keys(delta[f"{tier}_keys"]).tolist()
        dirty = np.unpackbits(delta[f"{tier}_dirty"])[: len(tail)].tolist()
        shipped = iter(delta[f"{tier}_values"])
        keys = [k for k, bit in zip(base_keys, kept) if bit] + tail
        counts = [int(c) for c, bit in zip(base[meta].tolist(), kept) if bit]
        values = [base_value[k] for k, bit in zip(base_keys, kept) if bit] + [
            np.asarray(next(shipped), dtype=np.float32) if bit else base_value[k]
            for k, bit in zip(tail, dirty)
        ]
        out[f"{tier}_keys"] = as_keys(keys)
        out[f"{tier}_values"] = np.asarray(values, dtype=np.float32).reshape(
            len(keys), delta[f"{tier}_values"].shape[1]
        )
        out[meta] = np.asarray(counts + [int(c) for c in delta[meta]], dtype=np.int64)
    out["hits"] = delta["hits"]
    out["misses"] = delta["misses"]
    return out


def assert_delta_matches_oracle(
    cache: CombinedCache,
    delta: dict[str, np.ndarray],
    base: dict[str, np.ndarray],
    *,
    written: np.ndarray | None = None,
) -> None:
    """``delta`` (production's ``export_delta()``) against the oracles,
    with ``base`` the full export retained when the mark was taken.

    Always sound: folded key by key onto the base it is the cache's
    export now, and every value it ships is that row's current value.
    With ``written`` — the exact set of keys inserted or written since
    the mark — array for array what the oracle ships.
    """
    now = CombinedCache.export_state(cache)
    folded = oracle_fold_delta(base, delta)
    assert list(folded) == list(now)
    for name, value in now.items():
        assert np.array_equal(folded[name], value), name
    for tier in ("lru", "lfu"):
        keys = as_keys(delta[f"{tier}_keys"])
        dirty = np.unpackbits(delta[f"{tier}_dirty"])[: keys.size].astype(bool)
        rows = cache._index.get(keys[dirty])[0]
        assert np.array_equal(delta[f"{tier}_values"], cache._values[rows])
    if written is not None:
        exact = oracle_cache_delta(cache, base, dirty_keys=written)
        assert list(delta) == list(exact)
        for name, value in exact.items():
            assert np.array_equal(delta[name], value), name
            assert delta[name].dtype == value.dtype, name


class CacheTraffic:
    """``MemPS``'s verbs on a small shadowed cache over a dict "SSD".

    One round is in flight at a time — what ``MemPS`` can do (a second
    ``prefetch`` before ``end_batch`` raises) — holding the rows its
    resolve and insert returned.  ``truth`` records the last value
    written per key, and every resolve checks that what it serves — from
    either tier, or back from the SSD after any number of demotions and
    flushes — is exactly that (the losslessness contract).  The shadow
    does the op-by-op parity checking.
    """

    def __init__(self, capacity: int, lru_fraction: float, dim: int = 2) -> None:
        self.dim = dim
        self.make = lambda: ShadowedCombinedCache(
            capacity, lru_fraction=lru_fraction, value_dim=dim
        )
        self.cache = self.make()
        self.ssd: dict[int, np.ndarray] = {}
        self.truth: dict[int, np.ndarray] = {}
        #: the in-flight round's (keys, rows); None at a round boundary
        self.in_flight: tuple[np.ndarray, np.ndarray] | None = None
        #: the full export retained at the last ``mark_snapshot`` (what
        #: the oracle diffs against) and every key inserted or written
        #: since — the cache's exact write set
        self.base: dict | None = None
        self.dirty: set[int] = set()
        self.writes = 0

    def _init_value(self, key: int) -> np.ndarray:
        return np.full(self.dim, key * 0.5, dtype=np.float32)

    def _persist(self, fk: np.ndarray, fv: np.ndarray) -> None:
        for k, v in zip(fk.tolist(), fv):
            self.ssd[k] = v.copy()

    @property
    def at_boundary(self) -> bool:
        return self.in_flight is None

    # -- verbs -----------------------------------------------------------
    def resolve(self, keys) -> bool:
        """One ``MemPS._resolve``: tier-ordered lookup, pin the hits,
        load the misses (SSD, else fresh init), insert them pinned.
        Returns False — with the cache untouched — if the union was
        refused as oversubscribed."""
        assert self.at_boundary, "one round in flight"
        cache = self.cache
        keys = np.unique(as_keys(keys))
        before = cache._ref_state()
        try:
            hit, rows = cache.prefetch_resolve(keys)
        except TierStateError:
            cache._assert_agrees("refused resolve must not mutate")
            cache._assert_state(before, "refused resolve must not mutate")
            return False
        cache.pin_rows(rows[hit])
        miss = keys[~hit]
        if miss.size:
            vals = np.stack(
                [self.ssd.get(k, self._init_value(k)) for k in miss.tolist()]
            )
            fk, fv, rows[~hit] = cache.put_batch(miss, vals, pin=True)
            self._persist(fk, fv)
            self.dirty.update(miss.tolist())
        served = cache.values_at(rows)
        for k, v in zip(keys.tolist(), served):
            assert np.array_equal(v, self.truth.get(k, self._init_value(k))), (
                f"key {k} lost its last written value"
            )
        self.in_flight = (keys, rows)
        return True

    def write(self, mask) -> None:
        """``absorb_updates`` / ``apply_gradients``: new values through
        the in-flight round's rows."""
        keys, rows = self.in_flight
        sel = np.flatnonzero(np.resize(np.asarray(mask, dtype=bool), keys.size))
        self.writes += 1
        vals = np.repeat(
            (keys[sel].astype(np.float32) + 0.125 * self.writes)[:, None],
            self.dim,
            axis=1,
        )
        self.cache.update_rows(rows[sel], vals)
        for k, v in zip(keys[sel].tolist(), vals):
            self.truth[k] = v
            self.dirty.add(k)

    def end_round(self) -> None:
        """``end_batch`` (and ``abort_round``): release the round's pins."""
        _, rows = self.in_flight
        self.in_flight = None
        self.cache.unpin_rows(rows)
        assert self.cache.pinned_count() == 0

    def peek(self, keys) -> None:
        self.cache.peek_batch(as_keys(keys))

    def insert_unpinned(self, keys) -> None:
        """The frozen micro-benchmark's shape: an unpinned insert of
        absent keys, possibly larger than the LRU tier (spill-through)."""
        keys = np.unique(as_keys(keys))
        keys = keys[~self.cache.peek_batch(keys)[1]]
        if keys.size == 0:
            return
        vals = np.stack(
            [self.ssd.get(k, self._init_value(k)) for k in keys.tolist()]
        )
        fk, fv, _ = self.cache.put_batch(keys, vals)
        self._persist(fk, fv)
        self.dirty.update(keys.tolist())

    def snapshot_roundtrip(self) -> None:
        """Full checkpoint → restore into a fresh cache, which takes
        over (its future evictions must be the original's) and — as a
        restore does once the chain is in — marks what it loaded."""
        state = self.cache.export_state()
        restored = self.make()
        restored.load_state(state)
        self.assert_unmarked(restored)
        self._adopt(restored)
        self.take_base()

    def take_base(self) -> None:
        """Start a delta chain: retain a full export for the oracle and
        mark the cache at it."""
        self.base = self.cache.export_state()
        self.cache.mark_snapshot()
        self.dirty.clear()

    def delta_roundtrip(self) -> None:
        """Delta snapshot since the mark → checked against the oracle's
        diff of the retained base → folded onto that base it is, byte for
        byte, the cache's export now (and neither input moved) → loaded
        into a fresh cache, which takes over and becomes the next base."""
        assert self.base is not None
        delta = self.cache.export_delta()
        assert_delta_matches_oracle(
            self.cache, delta, self.base, written=as_keys(sorted(self.dirty))
        )
        inputs = [{k: np.copy(v) for k, v in d.items()} for d in (self.base, delta)]
        folded = self.cache.fold_delta(self.base, delta)
        for before, after in zip(inputs, (self.base, delta)):
            assert_same_arrays(before, after)
        assert_same_arrays(folded, self.cache.export_state())
        restored = self.make()
        restored.load_state(folded)
        self.assert_unmarked(restored)
        self._adopt(restored)
        self.take_base()

    def assert_unmarked(self, cache: CombinedCache) -> None:
        """A cache with no mark (fresh, or loaded and not yet marked)
        refuses to diff, and the refusal changes nothing."""
        before = cache.export_state()
        try:
            cache.export_delta()
        except TierStateError as err:
            assert "mark" in str(err)
        else:
            raise AssertionError("an unmarked cache exported a delta")
        after = cache.export_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def mark_mid_round(self) -> None:
        """``mark_snapshot`` with the round's pins held is refused like
        ``export_state``, dirty bits and mark untouched."""
        assert not self.at_boundary and self.cache.pinned_count()
        dirty, mark = self.cache._dirty.copy(), self.cache._mark
        try:
            self.cache.mark_snapshot()
        except TierStateError as err:
            assert "pinned" in str(err)
        else:
            raise AssertionError("marked a snapshot mid-round")
        assert np.array_equal(self.cache._dirty, dirty)
        assert self.cache._mark == mark

    def _adopt(self, restored: ShadowedCombinedCache) -> None:
        want = self.cache.export_state()
        got = restored.export_state()
        for name, value in want.items():
            assert np.array_equal(got[name], value), f"restore: {name}"
        self.cache = restored
