"""The MEM-PS cache (paper Section 5, Appendix D).

The MEM-PS eviction policy combines LRU and LFU: every visited parameter
enters an **LRU** tier; LRU evictions demote into an **LFU** tier; LFU
evictions must be flushed to the SSD before their memory is released.
Working parameters of in-flight rounds are **pinned** in the LRU tier and
cannot be evicted until their round completes (pipeline integrity).

:class:`CombinedCache` serves exactly the traffic its one caller,
:class:`~repro.mem.mem_ps.MemPS`, sends — and nothing more general:

* **Keys are unique.**  Every key array handed to the cache is a set
  (the round plan's sorted-unique MEM-touch union, or a subset of it).
* **One lookup: the tier-ordered resolve**
  (:meth:`CombinedCache.prefetch_resolve`).  The union is accessed as
  [LRU hits, LFU promotions, misses]: hits are recency ticks on located
  rows, promotions move LFU residents into the LRU tier (demoting its
  coldest unpinned rows, which can never be this union's own hits), and
  misses only count.  Each index is probed once and the LRU row of every
  hit is handed back.  The whole union must fit the LRU tier next to the
  rows other in-flight rounds hold pinned — it is about to be pinned
  itself — and a union that does not is refused *before* any state
  changes (:class:`~repro.errors.TierStateError`).
* **One insert: absent keys** (:meth:`CombinedCache.put_batch`).  The
  caller inserts the resolve's misses — resident in neither tier by
  construction — pinned.  LRU overflow demotes the oldest unpinned rows
  into the LFU, LFU overflow comes back as flush pairs for the SSD, and
  the rows the keys landed in are returned with them.
* **Row ops in between.**  A pinned key's LRU row is stable until it is
  unpinned (pinned rows are never victims), so everything from the
  resolve to the round's end — gathers, scatters, touches, the final
  unpin — goes through rows, with no further index probe.

What is pinned, and when: the resolve's hits are pinned by the caller
right after it returns (so the miss insert cannot evict them), the
misses are inserted pinned, and the round's rows are released together
at its end — except rows a deeper prefetch window still claims.  A
snapshot (:meth:`CombinedCache.export_state`) is only defined with no
pins held.

Storage is two fixed slabs: values live in a preallocated ``(capacity,
value_dim)`` float32 array with parallel key / recency / count /
frequency / pin arrays, keys resolve to rows through a vectorized
open-addressing :class:`~repro.store.SlotIndex`, and victims are chosen
with ``argpartition`` over the recency / priority arrays.  Each tier has
one insertion primitive (:meth:`LRUCache.insert`,
:meth:`LFUCache.bulk_insert`), both **sequential-equivalent**: evictions
and flush pairs come out in the order a per-key loop would produce them.
The test suite holds the cache to the seed dict-of-ndarray
implementation kept under ``tests/cache_oracles.py``, replayed key by
key in the resolve's tier order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TierStateError
from repro.store.slot_index import SlotIndex
from repro.utils.keys import EMPTY_KEY, KEY_DTYPE, as_keys, mix_hash

__all__ = ["CombinedCache", "CacheStats"]

#: Order sentinel for free slots — sorts after every live tick/priority.
_FAR = np.int64(2**62)

_NO_SLOTS = np.empty(0, dtype=np.int64)


def _full_i64(n: int, value) -> np.ndarray:
    """``np.full(n, value, dtype=int64)`` without the broadcast wrapper.

    The resolve allocates several small sentinel-filled arrays per
    round; ``empty`` + C-level ``fill`` skips ``np.full``'s fill-value
    coercion and ``copyto`` broadcast machinery.
    """
    out = np.empty(n, dtype=np.int64)
    out.fill(value)
    return out


def _batch_hashes(keys: np.ndarray, *indices) -> np.ndarray | None:
    """Precompute ``mix_hash`` once per batch — or not at all.

    While every index involved is direct-addressed
    (:attr:`SlotIndex.hash_free`) the hashes would never be read, so the
    batch paths pass ``None``; an index that escapes to open addressing
    mid-operation computes the hash itself.
    """
    for ix in indices:
        if not ix.hash_free:
            return mix_hash(keys)
    return None


_PINNED_MSG = (
    "cache over capacity with all residents pinned — the pinned "
    "working set must fit in memory (paper Section 5)"
)


@dataclass
class CacheStats:
    """Hit/miss counters (drives the Fig. 4(c) reproduction) plus
    ``admission_runs``: dense slab passes applied — one per non-empty
    tier segment of a resolve, one per insert."""

    hits: int = 0
    misses: int = 0
    admission_runs: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.admission_runs = 0


def _empty_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return as_keys([]), np.zeros((0, dim), dtype=np.float32)


class _SlabCache:
    """Shared slab plumbing for the LRU and LFU tiers.

    A fixed pool of ``capacity`` rows; ``_index`` maps keys to rows,
    ``_free`` is a stack of unused rows.  Subclasses add the replacement
    metadata (recency ticks / frequency+tick priorities).
    """

    def __init__(
        self, capacity: int, value_dim: int, key_domain: int | None
    ) -> None:
        self.capacity = capacity
        self.value_dim = value_dim
        self._index = SlotIndex(capacity, key_domain=key_domain)
        self._keys = np.full(capacity, EMPTY_KEY, dtype=KEY_DTYPE)
        self._values = np.zeros((capacity, value_dim), dtype=np.float32)
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._n_free = capacity
        self._now = 0

    def _alloc(self, n: int) -> np.ndarray:
        if n > self._n_free:
            raise RuntimeError("slab out of rows (eviction planning bug)")
        self._n_free -= n
        return self._free[self._n_free : self._n_free + n].copy()

    def _release(self, slots: np.ndarray) -> None:
        n = slots.size
        self._free[self._n_free : self._n_free + n] = slots
        self._n_free += n

    def _ticks(self, n: int) -> np.ndarray:
        out = np.arange(self._now + 1, self._now + 1 + n, dtype=np.int64)
        self._now += n
        return out

    @property
    def size(self) -> int:
        return self.capacity - self._n_free

    def _items_in_order(self, order_key: np.ndarray):
        """Resident ``(slots, keys)`` sorted by ``order_key`` per slot."""
        occupied = np.flatnonzero(self._keys != EMPTY_KEY)
        occupied = occupied[np.argsort(order_key[occupied], kind="stable")]
        return occupied, self._keys[occupied]


class LRUCache(_SlabCache):
    """The recent tier of :class:`CombinedCache`: an LRU slab with pins.

    Recency is a monotone per-slot tick: a touch rewrites the slot's
    tick; eviction takes the smallest ticks among unpinned residents
    (``argpartition``), skipping pinned rows exactly as the seed dict
    scan did.  ``_count`` carries each resident's access count, which
    seeds its LFU frequency on demotion.
    """

    def __init__(
        self, capacity: int, value_dim: int, key_domain: int | None = None
    ) -> None:
        super().__init__(capacity, value_dim, key_domain)
        self._tick = np.full(capacity, _FAR, dtype=np.int64)
        self._pinned = np.zeros(capacity, dtype=bool)
        self._count = np.zeros(capacity, dtype=np.int64)

    def _select_evictions(self, n: int) -> np.ndarray:
        """Up to ``n`` unpinned resident slots, oldest tick first."""
        # Per-slot sort key: recency tick, pinned/free pushed to +inf.
        order = np.where(self._pinned, _FAR, self._tick)
        n = min(n, order.size)
        cand = np.argpartition(order, n - 1)[:n] if n < order.size else (
            np.arange(order.size)
        )
        cand = cand[order[cand] < _FAR]
        return cand[np.argsort(order[cand], kind="stable")]

    def _remove_slots(self, slots: np.ndarray) -> None:
        if slots.size == 0:
            return
        self._index.remove(self._keys[slots])
        self._keys[slots] = EMPTY_KEY
        self._tick[slots] = _FAR
        self._pinned[slots] = False
        self._release(slots)

    def insert(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        pin: bool,
        hints: np.ndarray | None = None,
        hashes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Insert unique *absent* ``keys`` in batch order.

        The tier's one insertion primitive, sequential-equivalent to a
        per-key insert loop.  Returns ``(rows, ekeys, evals, ecounts)``:
        the row each key landed in, and the demotion stream in eviction
        order with each victim's access count.  Victims are the oldest
        unpinned residents; when that supply runs out mid-batch, an
        unpinned insert *spills*: the earliest batch positions are
        themselves evicted again by the later ones (exactly as the seed
        scan reached them), leave with a fresh count of 1 and report row
        -1.  A pinned insert cannot spill and raises instead.

        ``hints`` / ``hashes`` are the probe slots and key hashes of the
        :meth:`SlotIndex.locate` call that found the keys absent, if the
        caller made one.
        """
        n = keys.size
        overflow = max(0, self.size + n - self.capacity)
        victims = self._select_evictions(overflow) if overflow else _NO_SLOTS
        n_spill = overflow - victims.size
        if n_spill and pin:
            raise TierStateError(_PINNED_MSG)
        ekeys = np.concatenate([self._keys[victims], keys[:n_spill]])
        evals = np.concatenate([self._values[victims], vals[:n_spill]], axis=0)
        ecounts = np.concatenate(
            [self._count[victims], np.ones(n_spill, dtype=np.int64)]
        )
        self._remove_slots(victims)
        ticks = self._ticks(n)
        rows = _full_i64(n, -1)
        landed = rows[n_spill:] = self._alloc(n - n_spill)
        keys = keys[n_spill:]
        if hashes is not None:
            hashes = hashes[n_spill:]
        self._keys[landed] = keys
        self._values[landed] = vals[n_spill:]
        self._tick[landed] = ticks[n_spill:]
        self._pinned[landed] = pin
        self._count[landed] = 1
        if hints is not None:
            self._index.install(keys, landed, hints[n_spill:], hashes)
        else:
            self._index.insert_absent(keys, landed, hashes)
        return rows, ekeys, evals, ecounts


class LFUCache(_SlabCache):
    """The frequent tier of :class:`CombinedCache`: an LFU slab.

    Eviction takes the minimum frequency, ties broken by the oldest
    *bucket-entry* tick (the moment the key entered the tier) — exactly
    the seed bucket implementation's least-recently-added rule.
    """

    def __init__(
        self, capacity: int, value_dim: int, key_domain: int | None = None
    ) -> None:
        super().__init__(capacity, value_dim, key_domain)
        self._freq = np.full(capacity, _FAR, dtype=np.int64)
        self._tick = np.full(capacity, _FAR, dtype=np.int64)

    def _remove_slots(self, slots: np.ndarray) -> None:
        if slots.size == 0:
            return
        self._index.remove(self._keys[slots])
        self._keys[slots] = EMPTY_KEY
        self._freq[slots] = _FAR
        self._tick[slots] = _FAR
        self._release(slots)

    def bulk_insert(
        self, keys: np.ndarray, vals: np.ndarray, freqs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequential-equivalent batch of seeded inserts of *new* keys.

        The tier's one insertion primitive.  ``keys`` must be unique and
        disjoint from current residents (the demotion stream of the
        combined policy is both by construction); ``freqs`` seeds each
        key's frequency — the access count it accumulated in the LRU
        tier, so demoted hot parameters are not treated as cold.
        Returns flushed ``(keys, values)`` in eviction order.
        """
        m = keys.size
        if m == 0:
            return _empty_pairs(self.value_dim)
        free0 = self.capacity - self.size
        n_evict = max(0, m - free0)
        if n_evict == 0:
            rows = self._alloc(m)
            self._keys[rows] = keys
            self._values[rows] = vals
            self._freq[rows] = freqs
            self._tick[rows] = self._ticks(m)
            self._index.insert_absent(keys, rows)
            return _empty_pairs(self.value_dim)
        # Arrival j (0-based) becomes an eviction candidate once its
        # insert has happened: eviction slot t (0-based) precedes insert
        # free0 + t, so arrival j needs slot t >= j - free0 + 1.
        d_release = np.maximum(0, np.arange(m, dtype=np.int64) - free0 + 1)
        pool = self._pool_candidates(n_evict)
        pool_slot, d_slot = _greedy_evictions(
            self._freq[pool], self._tick[pool], freqs, d_release, n_evict
        )
        # Flush list in eviction (slot) order.
        taken_pool = pool_slot >= 0
        taken_d = d_slot >= 0
        fkeys = np.concatenate([self._keys[pool[taken_pool]], keys[taken_d]])
        fvals = np.concatenate(
            [self._values[pool[taken_pool]].copy(), vals[taken_d]], axis=0
        )
        order = np.argsort(
            np.concatenate([pool_slot[taken_pool], d_slot[taken_d]]),
            kind="stable",
        )
        self._remove_slots(pool[taken_pool])
        ticks = self._ticks(m)
        keep = ~taken_d
        rows = self._alloc(int(keep.sum()))
        self._keys[rows] = keys[keep]
        self._values[rows] = vals[keep]
        self._freq[rows] = freqs[keep]
        self._tick[rows] = ticks[keep]
        self._index.insert_absent(keys[keep], rows)
        return fkeys[order].astype(KEY_DTYPE), fvals[order]

    def _pool_candidates(self, n_evict: int) -> np.ndarray:
        """Resident slots that could be evicted: the ``n_evict`` smallest
        by (freq, tick), returned in that priority order."""
        order_f = self._freq  # _FAR on free slots keeps them out
        if n_evict < self.size:
            kth = np.partition(order_f, n_evict - 1)[n_evict - 1]
            cand = np.flatnonzero(order_f <= kth)
        else:
            cand = np.flatnonzero(order_f < _FAR)
        order = np.lexsort((self._tick[cand], self._freq[cand]))
        return cand[order][:n_evict]


def _greedy_evictions(
    pool_freq: np.ndarray,
    pool_tick: np.ndarray,
    d_freq: np.ndarray,
    d_release: np.ndarray,
    n_slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact offline solution of the LFU insert/evict stream.

    The sequential process performs ``n_slots`` evictions; eviction ``t``
    removes the minimum-(freq, tick) item among the initial pool plus the
    arrivals inserted so far.  That pop-min process is equivalent to the
    greedy matching: walk all candidates in ascending (freq, tick)
    priority and give each the earliest free eviction slot at or after
    its release (pool items release at 0, arrival ``j`` at
    ``d_release[j]``); candidates left without a slot survive.

    Processing one frequency class at a time keeps everything vectorized:
    within a class both groups are already priority- and release-ordered
    (pool ticks all precede arrival ticks; arrivals arrive in tick
    order), so the earliest-free-slot recurrence collapses to a running
    maximum over positions found with ``searchsorted``.

    Returns per-candidate eviction slots (-1 = survives).
    """
    pool_slot = _full_i64(pool_freq.size, -1)
    d_slot = _full_i64(d_freq.size, -1)
    avail = np.arange(n_slots, dtype=np.int64)
    d_eligible = d_release < n_slots
    for f in np.unique(np.concatenate([pool_freq, d_freq[d_eligible]])):
        if avail.size == 0:
            break
        p_idx = np.flatnonzero(pool_freq == f)
        d_idx = np.flatnonzero((d_freq == f) & d_eligible)
        rel = np.concatenate(
            [np.zeros(p_idx.size, dtype=np.int64), d_release[d_idx]]
        )
        if rel.size == 0:
            continue
        pos = avail.searchsorted(rel, side="left")
        seq = np.arange(rel.size, dtype=np.int64)
        assigned = np.maximum.accumulate(pos - seq) + seq
        ok = assigned < avail.size
        pool_slot[p_idx[ok[: p_idx.size]]] = avail[
            assigned[: p_idx.size][ok[: p_idx.size]]
        ]
        d_slot[d_idx[ok[p_idx.size :]]] = avail[
            assigned[p_idx.size :][ok[p_idx.size :]]
        ]
        keep = np.ones(avail.size, dtype=bool)
        keep[assigned[ok]] = False
        avail = avail[keep]
    return pool_slot, d_slot


class CombinedCache:
    """The paper's two-tier LRU→LFU policy with pinning.

    * On access: LRU hit refreshes recency; LFU hit *promotes* the key back
      into the LRU tier (recent again); miss reports False.
    * On insert: key enters the LRU tier.  LRU overflow demotes to LFU;
      LFU overflow emits flush candidates (must be written to SSD).
    * Pinned keys live in the LRU tier and are never evicted until
      unpinned.

    Access counts of LRU residents ride in the LRU slab and seed the LFU
    frequency on demotion, so demoted hot parameters keep their standing.
    See the module docstring for the calling contract.
    """

    def __init__(
        self,
        capacity: int,
        *,
        lru_fraction: float = 0.5,
        value_dim: int = 1,
        key_domain: int | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError("combined cache needs capacity >= 2")
        if not 0.0 < lru_fraction < 1.0:
            raise ValueError("lru_fraction must be in (0, 1)")
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        self.key_domain = key_domain
        self.value_dim = value_dim
        self.stats = CacheStats()
        lru_cap = max(1, int(capacity * lru_fraction))
        self._reset_tiers(lru_cap, max(1, capacity - lru_cap))

    def _reset_tiers(self, lru_cap: int, lfu_cap: int) -> None:
        self.lru = LRUCache(lru_cap, self.value_dim, self.key_domain)
        self.lfu = LFUCache(lfu_cap, self.value_dim, self.key_domain)

    def __len__(self) -> int:
        return self.lru.size + self.lfu.size

    @property
    def capacity(self) -> int:
        return self.lru.capacity + self.lfu.capacity

    # -- the lookup ------------------------------------------------------
    def prefetch_resolve(
        self,
        keys: np.ndarray,
        prev_keys: np.ndarray | None = None,
        prev_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tier-ordered one-pass resolve of a unique key union.

        Sequential-equivalent to looking the union up key by key in the
        order [LRU hits, LFU promotions, misses] — the access order the
        prefetch stage commits to.  Each index is probed exactly once:

        * the LRU segment is pure recency ticks on the located slots;
        * the LFU segment reuses the same probe state (still valid — the
          tick segment mutates no index) and promotes in one dense pass,
          demoting the LRU tier's coldest unpinned rows to make room;
        * the miss segment only counts (lookups never insert).

        Returns ``(hit, rows)`` in input order; ``rows[i]`` is the LRU
        slab row of every hit (-1 for misses, reported later by
        :meth:`put_batch`).

        The union is about to be pinned whole, so it must fit the LRU
        tier beside the pinned rows it does not already share; otherwise
        :class:`~repro.errors.TierStateError` is raised with the cache
        untouched.  (Past that bound a promotion would evict this very
        union's LRU hits after their rows had been recorded.)

        ``prev_keys``/``prev_rows`` (the previous round's resolved union)
        let consecutive unions share their overlap: a key still sitting
        in its old slab row — verified directly against the slab, the
        source of truth the index mirrors — needs no probe at all, so
        only the cross-round *delta* pays SlotIndex traffic.
        """
        keys = as_keys(keys)
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool), _NO_SLOTS.copy()
        lru, lfu = self.lru, self.lfu
        carried = np.zeros(n, dtype=bool)
        carried_rows = _NO_SLOTS
        if (
            prev_keys is not None
            and prev_keys.size
            and prev_rows is not None
            and int(prev_rows.max(initial=-1)) < lru._keys.shape[0]
        ):
            pos = prev_keys.searchsorted(keys)
            np.minimum(pos, prev_keys.size - 1, out=pos)
            cand = prev_keys[pos] == keys
            rows_cand = prev_rows[pos[cand]]
            ok = lru._keys[rows_cand] == keys[cand]
            carried[np.flatnonzero(cand)[ok]] = True
            carried_rows = rows_cand[ok]
        if carried.any():
            sub = np.flatnonzero(~carried)
            k_sub = keys[sub]
            h_sub = _batch_hashes(k_sub, lru._index, lfu._index)
            s_slots, s_in_lru, s_hints = lru._index.locate(k_sub, h_sub)
            sf_slots, s_in_lfu = lfu._index.get(k_sub, h_sub)
            in_lru = carried.copy()
            in_lru[sub] = s_in_lru
            lru_slots = np.empty(n, dtype=np.int64)
            lru_slots[carried] = carried_rows
            lru_slots[sub] = s_slots
            in_lfu = np.zeros(n, dtype=bool)
            in_lfu[sub] = s_in_lfu
            lfu_slots = _full_i64(n, -1)
            lfu_slots[sub] = sf_slots
            lru_hints = _full_i64(n, -1)
            lru_hints[sub] = s_hints
            if h_sub is None:
                hashes = None
            else:
                hashes = np.zeros(n, dtype=np.uint64)
                hashes[sub] = h_sub
        else:
            hashes = _batch_hashes(keys, lru._index, lfu._index)
            lru_slots, in_lru, lru_hints = lru._index.locate(keys, hashes)
            lfu_slots, in_lfu = lfu._index.get(keys, hashes)
        res = lru_slots[in_lru]
        n0 = res.size
        n1 = int(in_lfu.sum())
        pins_outside = np.count_nonzero(lru._pinned) - np.count_nonzero(
            lru._pinned[res]
        )
        if n + pins_outside > lru.capacity:
            raise TierStateError(
                f"a MEM working set of {n} keys does not fit the "
                f"{lru.capacity}-row LRU tier beside the {pins_outside} "
                "rows other in-flight rounds hold pinned — the pinned "
                "working set must fit in memory (paper Section 5); raise "
                "mem_capacity_params or cache_lru_fraction"
            )
        rows = _full_i64(n, -1)
        # -- segment 1: LRU hits — ticks on known slots ----------------
        if n0:
            lru._tick[res] = lru._ticks(n0)
            lru._count[res] += 1
            rows[in_lru] = res
            self.stats.hits += n0
            self.stats.admission_runs += 1
        # -- segment 2: LFU promotions — one dense pass, probes reused --
        if n1:
            rows[in_lfu] = self._promote(
                keys[in_lfu],
                lfu_slots[in_lfu],
                lru_hints[in_lfu],
                None if hashes is None else hashes[in_lfu],
            )
            self.stats.hits += n1
            self.stats.admission_runs += 1
        # -- segment 3: misses — lookups never insert ------------------
        if n - n0 - n1:
            self.stats.misses += n - n0 - n1
            self.stats.admission_runs += 1
        return in_lru | in_lfu, rows

    def _promote(self, keys, lfu_slots, lru_hints, hashes) -> np.ndarray:
        """Move LFU residents into the LRU tier; returns their new rows.

        The promoted keys carry their frequency + 1 as access count.
        The resolve's capacity check guarantees the LRU tier's unpinned
        non-union residents cover the demand, so nothing spills.
        """
        lru, lfu = self.lru, self.lfu
        vals = lfu._values[lfu_slots]
        counts = lfu._freq[lfu_slots] + 1
        lfu._remove_slots(lfu_slots)
        rows, ekeys, evals, ecounts = lru.insert(
            keys, vals, False, lru_hints, hashes
        )
        assert int(rows.min()) >= 0
        lru._count[rows] = counts
        # Every promotion freed an LFU row before any demotion needed
        # one, so the demotions can never flush.
        fk, _ = lfu.bulk_insert(ekeys, evals, ecounts)
        assert fk.size == 0
        return rows

    def get_batch(
        self, keys: np.ndarray, *, assume_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve + gather: ``(values, hit_mask)``, misses zero-filled.

        Kept, with ``assume_unique`` accepted and ignored (keys are
        always unique), only because the frozen
        ``benchmarks/hps/micro.py`` times it; drop at benchmark v2.
        """
        hit, rows = self.prefetch_resolve(keys)
        values = np.zeros((hit.size, self.value_dim), dtype=np.float32)
        values[hit] = self.lru._values[rows[hit]]
        return values, hit

    # -- the insert ------------------------------------------------------
    def put_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        pin: bool = False,
        assume_unique: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert unique keys resident in *neither* tier (a resolve's
        misses); returns ``(flush_keys, flush_values, rows)``.

        Sequential-equivalent to inserting the keys one by one: LRU
        overflow demotes the oldest unpinned rows into the LFU, whose
        overflow comes back as flush pairs the caller must persist.
        ``rows[i]`` is the LRU row ``keys[i]`` landed in — -1 if an
        unpinned batch larger than the free + unpinned LRU rows spilled
        it straight through to the LFU (see :meth:`LRUCache.insert`).  A
        pinned batch that does not fit raises
        :class:`~repro.errors.TierStateError`.

        ``assume_unique`` is accepted and ignored (keys are always
        unique) only because the frozen ``benchmarks/hps/micro.py``
        passes it; drop at benchmark v2.
        """
        keys = as_keys(keys)
        vals = np.asarray(values, dtype=np.float32)
        if vals.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if keys.size == 0:
            return (*_empty_pairs(self.value_dim), _NO_SLOTS.copy())
        lru = self.lru
        hashes = _batch_hashes(keys, lru._index)
        _, resident, hints = lru._index.locate(keys, hashes)
        if resident.any():
            raise TierStateError(
                "put_batch inserts absent keys only, but "
                f"{int(keys[resident][0])} is already LRU-resident — "
                "update resident values through their rows (update_rows)"
            )
        rows, ekeys, evals, ecounts = lru.insert(keys, vals, pin, hints, hashes)
        self.stats.admission_runs += 1
        fk, fv = self.lfu.bulk_insert(ekeys, evals, ecounts)
        return fk, fv, rows

    # -- row ops ---------------------------------------------------------
    # A pinned key's LRU slab row is stable until it is unpinned: pinned
    # rows are never eviction victims.  Callers that pin a working set
    # therefore keep the rows the resolve and the insert handed back and
    # read, write, touch and unpin through them without further SlotIndex
    # probes.
    def pin_rows(self, rows: np.ndarray) -> None:
        """Pin resident LRU slab rows (a resolve's hits)."""
        self.lru._pinned[rows] = True

    def unpin_rows(self, rows: np.ndarray) -> None:
        """Release pins at resolved LRU rows."""
        self.lru._pinned[rows] = False

    def unpin_rows_except(
        self, rows: np.ndarray, keep: list[np.ndarray]
    ) -> None:
        """Release pins at ``rows`` except rows present in any ``keep``.

        End-of-round face of the prefetch window: the finished round's
        rows are unpinned, but rows the still-in-flight lookahead window
        shares with it must stay pinned (a pin is a boolean, not a
        refcount, so a plain unpin would release the window's claim).
        """
        if not keep:
            self.lru._pinned[rows] = False
            return
        mask = np.zeros(self.lru._keys.shape[0], dtype=bool)
        mask[rows] = True
        for k in keep:
            mask[k] = False
        self.lru._pinned[mask] = False

    def pinned_count(self) -> int:
        return int(self.lru._pinned.sum())

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite values at pinned LRU rows (no metadata changes)."""
        self.lru._values[rows] = np.asarray(values, dtype=np.float32)

    def values_at(self, rows: np.ndarray) -> np.ndarray:
        """Read values at pinned LRU rows — a pure slab gather, touching
        neither recency nor hit/miss statistics."""
        return self.lru._values[rows]

    def touch_rows(self, rows: np.ndarray) -> None:
        """Account an LRU access at already-resolved pinned rows.

        The consume path of the depth-k prefetch window: the rows were
        located (and pinned) by an earlier round's
        :meth:`prefetch_resolve`, so serving them this round is recency
        ticks + access counts + hit statistics on known slots — exactly
        segment 1 of the resolve, with zero index traffic.
        """
        n = rows.size
        if not n:
            return
        self.lru._tick[rows] = self.lru._ticks(n)
        self.lru._count[rows] += 1
        self.stats.hits += n

    def peek_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only batch lookup: no recency, frequency, or stats."""
        keys = as_keys(keys)
        values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        lru_slots, in_lru = self.lru._index.get(keys)
        values[in_lru] = self.lru._values[lru_slots[in_lru]]
        lfu_slots, in_lfu = self.lfu._index.get(keys)
        in_lfu &= ~in_lru
        values[in_lfu] = self.lfu._values[lfu_slots[in_lfu]]
        return values, in_lru | in_lfu

    # -- snapshots -------------------------------------------------------
    def _require_unpinned(self) -> None:
        if self.lru._pinned.any():
            raise TierStateError(
                "cannot snapshot a cache with pinned entries — finish the "
                "in-flight batch first"
            )

    def export_state(self) -> dict[str, np.ndarray]:
        """Replacement-exact snapshot of both tiers (checkpointing).

        Per tier the entries come out in *recency order* (oldest tick
        first) together with the replacement metadata that decides future
        evictions — LRU access counts, LFU frequencies.  Re-ingesting the
        snapshot through :meth:`load_state` therefore reproduces not just
        the resident values but the exact future eviction sequence: ticks
        are only ever compared relatively, so re-assigning them in
        snapshot order is equivalence-preserving.

        The snapshot is only well-defined at a batch boundary: pinned
        entries belong to an in-flight batch and have no on-disk meaning.
        """
        self._require_unpinned()
        lru_rows, lru_keys = self.lru._items_in_order(self.lru._tick)
        lfu_rows, lfu_keys = self.lfu._items_in_order(self.lfu._tick)
        return {
            "lru_keys": lru_keys.astype(KEY_DTYPE),
            "lru_values": self.lru._values[lru_rows].copy(),
            "lru_counts": self.lru._count[lru_rows].copy(),
            "lfu_keys": lfu_keys.astype(KEY_DTYPE),
            "lfu_values": self.lfu._values[lfu_rows].copy(),
            "lfu_freqs": self.lfu._freq[lfu_rows].copy(),
            "hits": np.int64(self.stats.hits),
            "misses": np.int64(self.stats.misses),
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild both tiers from an :meth:`export_state` snapshot."""
        lru_keys = as_keys(state["lru_keys"])
        lfu_keys = as_keys(state["lfu_keys"])
        lru_values = np.asarray(state["lru_values"], dtype=np.float32)
        lfu_values = np.asarray(state["lfu_values"], dtype=np.float32)
        if lru_values.shape != (lru_keys.size, self.value_dim) or (
            lfu_values.shape != (lfu_keys.size, self.value_dim)
        ):
            raise ValueError("cache snapshot value shape mismatch")
        if lru_keys.size > self.lru.capacity or lfu_keys.size > self.lfu.capacity:
            raise ValueError(
                "cache snapshot does not fit this cache's tier capacities"
            )
        self._reset_tiers(self.lru.capacity, self.lfu.capacity)
        # Oldest-first re-insertion assigns fresh ascending ticks, which
        # preserves every relative recency comparison the policy makes;
        # both inserts fit by the capacity check above.
        self.lfu.bulk_insert(
            lfu_keys, lfu_values, np.asarray(state["lfu_freqs"], dtype=np.int64)
        )
        rows = self.lru.insert(lru_keys, lru_values, False)[0]
        self.lru._count[rows] = np.asarray(state["lru_counts"], dtype=np.int64)
        self.stats.hits = int(state["hits"])
        self.stats.misses = int(state["misses"])

    def export_delta(
        self,
        base: dict[str, np.ndarray],
        *,
        dirty_keys: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Diff the cache against a prior :meth:`export_state` snapshot.

        Replacement metadata (key order, access counts, frequencies)
        changes on nearly every access and is cheap — a few int64 per
        resident — so it ships in full.  The bulk of a snapshot is the
        value slab (``value_dim`` float32 per row); the delta ships
        values only for rows that are new since ``base`` or whose value
        changed, recorded as positions into the shipped key arrays.

        With ``dirty_keys`` (the caller's union of keys written since
        the base — e.g. the plan's local partitions plus owner-queue
        applications), changed rows are selected by membership instead
        of comparing slabs.  Both modes treat a key's base value as
        tier-independent: promotions move entries between LRU and LFU
        with values intact, so a row that merely switched tiers ships
        metadata only.
        """
        self._require_unpinned()
        base_keys = np.concatenate(
            [as_keys(base["lru_keys"]), as_keys(base["lfu_keys"])]
        )
        base_values = np.concatenate(
            [
                np.asarray(base["lru_values"], dtype=np.float32),
                np.asarray(base["lfu_values"], dtype=np.float32),
            ],
            axis=0,
        )
        order = np.argsort(base_keys)
        base_keys, base_values = base_keys[order], base_values[order]
        if dirty_keys is not None:
            dirty_keys = np.unique(as_keys(dirty_keys))

        def ship_mask(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
            pos = base_keys.searchsorted(keys)
            pos_c = np.minimum(pos, max(0, base_keys.size - 1))
            in_base = (
                (base_keys[pos_c] == keys)
                if base_keys.size
                else np.zeros(keys.size, dtype=bool)
            )
            ship = ~in_base
            if dirty_keys is not None:
                ship |= np.isin(keys, dirty_keys)
            else:
                changed = np.zeros(keys.size, dtype=bool)
                changed[in_base] = np.any(
                    values[in_base] != base_values[pos_c[in_base]], axis=1
                )
                ship |= changed
            return ship

        lru_rows, lru_keys = self.lru._items_in_order(self.lru._tick)
        lfu_rows, lfu_keys = self.lfu._items_in_order(self.lfu._tick)
        lru_values = self.lru._values[lru_rows]
        lfu_values = self.lfu._values[lfu_rows]
        lru_ship = ship_mask(lru_keys, lru_values)
        lfu_ship = ship_mask(lfu_keys, lfu_values)
        return {
            "lru_keys": lru_keys.astype(KEY_DTYPE),
            "lru_counts": self.lru._count[lru_rows].copy(),
            "lru_val_idx": np.flatnonzero(lru_ship).astype(np.int64),
            "lru_values": lru_values[lru_ship].copy(),
            "lfu_keys": lfu_keys.astype(KEY_DTYPE),
            "lfu_freqs": self.lfu._freq[lfu_rows].copy(),
            "lfu_val_idx": np.flatnonzero(lfu_ship).astype(np.int64),
            "lfu_values": lfu_values[lfu_ship].copy(),
            "hits": np.int64(self.stats.hits),
            "misses": np.int64(self.stats.misses),
        }

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply an :meth:`export_delta` diff on top of the base state.

        The cache must currently hold the base the delta was diffed
        against; unshipped rows pull their (unchanged) values out of the
        resident slabs via :meth:`peek_batch` — a key that cannot be
        resolved means the delta is being applied to the wrong base.
        """
        state: dict[str, np.ndarray] = {
            "hits": delta["hits"],
            "misses": delta["misses"],
        }
        for tier, meta in (("lru", "lru_counts"), ("lfu", "lfu_freqs")):
            keys = as_keys(delta[f"{tier}_keys"])
            idx = np.asarray(delta[f"{tier}_val_idx"], dtype=np.int64)
            shipped = np.asarray(delta[f"{tier}_values"], dtype=np.float32)
            values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
            carried = np.ones(keys.size, dtype=bool)
            carried[idx] = False
            values[idx] = shipped
            if carried.any():
                old, found = self.peek_batch(keys[carried])
                if not bool(np.all(found)):
                    missing = keys[carried][~found][:5]
                    raise ValueError(
                        "cache delta carries values for keys absent from "
                        f"the base, e.g. {missing.tolist()} — wrong base?"
                    )
                values[carried] = old
            state[f"{tier}_keys"] = keys
            state[f"{tier}_values"] = values
            state[meta] = delta[meta]
        self.load_state(state)

    def flush_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain everything (shutdown / checkpoint path)."""
        lru_rows, lru_keys = self.lru._items_in_order(self.lru._tick)
        lfu_rows, lfu_keys = self.lfu._items_in_order(self.lfu._tick)
        keys = np.concatenate([lru_keys, lfu_keys]).astype(KEY_DTYPE)
        values = np.concatenate(
            [self.lru._values[lru_rows], self.lfu._values[lfu_rows]], axis=0
        )
        self._reset_tiers(self.lru.capacity, self.lfu.capacity)
        return keys, values
