"""The MEM-PS cache (paper Section 5, Appendix D).

The MEM-PS eviction policy combines LRU and LFU: every visited parameter
enters an **LRU** tier; LRU evictions demote into an **LFU** tier; LFU
evictions must be flushed to the SSD before their memory is released.
Working parameters of in-flight rounds are **pinned** in the LRU tier and
cannot be evicted until their round completes (pipeline integrity).

**One slab, and the tier is metadata on the row.**  The cache owns
``lru_capacity + lfu_capacity`` rows — values in a preallocated
``(rows, value_dim)`` float32 array, parallel key / order / count / pin
arrays, one :class:`~repro.store.SlotIndex` (key → row) and one stack
of free rows.  Which tier a resident belongs to is read off its order
fields: an LRU resident carries a recency tick (``_tick``), an LFU
resident a frequency and a bucket-entry tick (``_freq``, ``_ftick``),
and each order array holds ``_FAR`` outside its tier, so victim
selection is ``argpartition`` / ``partition`` + ``lexsort`` over the
whole slab with no tier mask.  ``_count`` is the LRU access count and
the LFU frequency at once (they are the same number).  ``n_lru`` /
``n_lfu`` enforce the two capacities, which stay policy quantities.
Promotion and demotion are pure policy events and rewrite that metadata
only: **a resident key's row never moves** — from the insert that
admitted it to the flush that evicts it, across any number of
promotions and demotions — and the index is written only where the key
*set* changes (one ``set`` for an insert's keys, one ``remove`` for
the rows it flushes).

:class:`CombinedCache` serves exactly the traffic its one caller,
:class:`~repro.mem.mem_ps.MemPS`, sends — and nothing more general:

* **Keys are unique.**  Every key array handed to the cache is a set
  (the round plan's sorted-unique MEM-touch union, or a subset of it).
* **One lookup: the tier-ordered resolve**
  (:meth:`CombinedCache.prefetch_resolve`).  One probe of the index
  locates every resident and the tier is read off the located rows; the
  union is then accessed as [LRU hits, LFU promotions, misses]: hits are
  recency ticks, promotions re-label LFU rows as LRU rows (demoting the
  LRU tier's coldest unpinned rows, which can never be this union's own
  hits), and misses only count.  The row of every hit is handed back.
  The whole union must fit the LRU tier next to the rows other in-flight
  rounds hold pinned — it is about to be pinned itself — and a union
  that does not is refused *before* any state changes
  (:class:`~repro.errors.TierStateError`).
* **One insert: absent keys** (:meth:`CombinedCache.put_batch`).  The
  caller inserts the resolve's misses — resident in neither tier by
  construction — pinned.  In order: the LRU tier's oldest unpinned rows
  are selected as victims; the LFU tier admits that demotion stream and
  names what it flushes; the flushed rows leave the index and return to
  the free stack (their pairs go back to the caller, for the SSD); only
  then do the new keys allocate rows — with both tiers full the free
  stack is empty until that flush.
* **Row ops in between.**  Everything from the resolve to the round's
  end — gathers, scatters, the final unpin — goes through the rows the
  resolve and the insert handed back, with no further index probe.
  Values move as whole slab rows through
  :func:`~repro.utils.rows.take_rows` / :func:`~repro.utils.rows.put_rows`,
  the insert's scatter and its flush gather included.  Pinned rows are
  never victims, so they cannot be flushed.

What is pinned, and when: the resolve's hits are pinned by the caller
right after it returns (so the miss insert cannot evict them), the
misses are inserted pinned, and the round's rows are released together
at its end.  A snapshot (:meth:`CombinedCache.export_state`) is only
defined with no pins held.

Both passes are **sequential-equivalent**: evictions and flush pairs
come out in the order a per-key loop would produce them.  Row identity
is unobservable to the policy — ticks are unique within a tier, so the
same victims leave in the same order whatever rows they sit in.  The
test suite holds the cache to the seed dict-of-ndarray implementation
kept under ``tests/cache_oracles.py``, replayed key by key in the
resolve's tier order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TierStateError
from repro.store.slot_index import SlotIndex
from repro.utils.keys import (
    EMPTY_KEY,
    KEY_DTYPE,
    all_unique,
    as_keys,
    check_key_cap,
)
from repro.utils.rows import put_rows, take_rows

__all__ = ["CombinedCache", "CacheStats"]

#: Order sentinel outside a tier — sorts after every live tick/frequency.
_FAR = np.int64(2**62)

_NO_SLOTS = np.empty(0, dtype=np.int64)

#: per tier: snapshot name, count array name, order field
_TIERS = (("lru", "lru_counts", "_tick"), ("lfu", "lfu_freqs", "_ftick"))

_PINNED_MSG = (
    "cache over capacity with all residents pinned — the pinned "
    "working set must fit in memory (paper Section 5)"
)


def _full_i64(n: int, value) -> np.ndarray:
    """``np.full(n, value, dtype=int64)`` without the broadcast wrapper
    (``empty`` + C-level ``fill``; the per-round paths allocate several
    small sentinel-filled arrays)."""
    out = np.empty(n, dtype=np.int64)
    out.fill(value)
    return out


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


def _empty_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return as_keys([]), np.zeros((0, dim), dtype=np.float32)


def _unpacked(delta: dict, name: str, n: int, of: str) -> np.ndarray:
    """``delta[name]`` unpacked to ``n`` booleans; ValueError unless it
    is exactly a packed mask of ``n`` bits (no bit set past them)."""
    bits = np.asarray(delta[name])
    if bits.dtype != np.uint8 or bits.shape != (-(-n // 8),):
        raise ValueError(f"cache delta {name} is not a packed mask of {n} {of}")
    mask = np.unpackbits(bits).view(bool)
    if mask[n:].any():
        raise ValueError(f"cache delta {name} marks rows past its {n} {of}")
    return mask[:n]


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
    """The paper's two-tier LRU→LFU policy with pinning, in one slab.

    * On access: LRU hit refreshes recency; LFU hit *promotes* the key back
      into the LRU tier (recent again); miss reports False.
    * On insert: key enters the LRU tier.  LRU overflow demotes to LFU;
      LFU overflow emits flush candidates (must be written to SSD).
    * Pinned keys live in the LRU tier and are never evicted until
      unpinned.

    A resident's access count rides on its row through every tier change
    — it seeds the LFU frequency on demotion, so demoted hot parameters
    keep their standing.  See the module docstring for the layout and the
    calling contract.
    """

    def __init__(
        self,
        capacity: int,
        *,
        lru_fraction: float = 0.5,
        value_dim: int = 1,
    ) -> None:
        if capacity < 2:
            raise ValueError("combined cache needs capacity >= 2")
        if not 0.0 < lru_fraction < 1.0:
            raise ValueError("lru_fraction must be in (0, 1)")
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        self.value_dim = value_dim
        self.stats = CacheStats()
        #: rows the LRU tier may hold (pins live here) / the LFU tier may hold
        self.lru_capacity = max(1, int(capacity * lru_fraction))
        self.lfu_capacity = max(1, capacity - self.lru_capacity)
        #: the delta base (:meth:`mark_snapshot`): ``(clock, LRU size, LFU
        #: size)`` at the last committed snapshot; None until one is
        #: marked, and again after a load.
        self._mark: tuple[int, int, int] | None = None
        #: the tick clock; only a mark resets it, so every tick drawn
        #: after the mark is larger than the mark's clock
        self._now = 0
        self._reset()

    def _reset(self) -> None:
        """Empty slab: every row free, every order field ``_FAR``."""
        rows = self.capacity
        self._index = SlotIndex()
        self._keys = np.full(rows, EMPTY_KEY, dtype=KEY_DTYPE)
        self._values = np.zeros((rows, self.value_dim), dtype=np.float32)
        self._tick = np.full(rows, _FAR, dtype=np.int64)  # LRU recency
        self._freq = np.full(rows, _FAR, dtype=np.int64)  # LFU frequency
        self._ftick = np.full(rows, _FAR, dtype=np.int64)  # LFU bucket entry
        self._count = np.zeros(rows, dtype=np.int64)
        self._pinned = np.zeros(rows, dtype=bool)
        #: value written (insert or update) since the last mark_snapshot
        self._dirty = np.zeros(rows, dtype=bool)
        self._free = np.arange(rows - 1, -1, -1, dtype=np.int64)
        self._n_free = rows
        self.n_lru = 0
        self.n_lfu = 0

    def __len__(self) -> int:
        return self.n_lru + self.n_lfu

    @property
    def capacity(self) -> int:
        return self.lru_capacity + self.lfu_capacity

    # -- slab plumbing ---------------------------------------------------
    def _alloc(self, n: int) -> np.ndarray:
        if n > self._n_free:
            raise RuntimeError("slab out of rows (eviction planning bug)")
        self._n_free -= n
        return self._free[self._n_free : self._n_free + n].copy()

    def _ticks(self, n: int) -> np.ndarray:
        """``n`` fresh ascending ticks.  Both tiers draw from one clock:
        ticks are only ever compared within a tier."""
        out = np.arange(self._now + 1, self._now + 1 + n, dtype=np.int64)
        self._now += n
        return out

    def _tier_rows(self, order: np.ndarray) -> np.ndarray:
        """The rows of one tier (``order`` is ``_tick`` or ``_ftick``),
        oldest tick first — LRU eviction order / LFU entry order."""
        rows = np.flatnonzero(order < _FAR)
        return rows[np.argsort(order[rows], kind="stable")]

    def _lru_victims(self, n: int) -> np.ndarray:
        """Up to ``n`` unpinned LRU rows, oldest tick first."""
        # Per-row sort key: recency tick; pinned, LFU and free rows at +inf.
        order = np.where(self._pinned, _FAR, self._tick)
        n = min(n, order.size)
        cand = np.argpartition(order, n - 1)[:n] if n < order.size else (
            np.arange(order.size)
        )
        cand = cand[order[cand] < _FAR]
        return cand[np.argsort(order[cand], kind="stable")]

    def _pool_candidates(self, n_evict: int) -> np.ndarray:
        """LFU rows that could be evicted: the ``n_evict`` smallest by
        (freq, entry tick), returned in that priority order — minimum
        frequency first, ties broken by the oldest bucket entry, exactly
        the seed bucket implementation's least-recently-added rule."""
        order_f = self._freq  # _FAR outside the LFU tier keeps rows out
        if n_evict < self.n_lfu:
            kth = np.partition(order_f, n_evict - 1)[n_evict - 1]
            cand = np.flatnonzero(order_f <= kth)
        else:
            cand = np.flatnonzero(order_f < _FAR)
        order = np.lexsort((self._ftick[cand], self._freq[cand]))
        return cand[order][:n_evict]

    # -- the lookup ------------------------------------------------------
    def prefetch_resolve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tier-ordered one-pass resolve of a unique key union.

        Sequential-equivalent to looking the union up key by key in the
        order [LRU hits, LFU promotions, misses] — the access order the
        prefetch stage commits to.  The index is probed exactly once and
        each located row says which tier its key is in:

        * the LRU segment is pure recency ticks on the located rows;
        * the LFU segment promotes in one dense pass — the promoted rows
          trade their LFU order fields for fresh recency ticks and the
          LRU tier's coldest unpinned rows (selected *before* those
          ticks land) take LFU order fields in exchange.  No value is
          copied and the index is not written: every key keeps its row;
        * the miss segment only counts (lookups never insert).

        Returns ``(hit, rows)`` in input order; ``rows[i]`` is the slab
        row of every hit (-1 for misses, reported later by
        :meth:`put_batch`).

        The union is about to be pinned whole, so it must fit the LRU
        tier beside the pinned rows it does not already share; otherwise
        :class:`~repro.errors.TierStateError` is raised with the cache
        untouched.  (Past that bound a promotion would demote this very
        union's LRU hits.)
        """
        keys = as_keys(keys)
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool), _NO_SLOTS.copy()
        rows, found = self._index.get(keys)
        # An absent key's row is -1, which would read the last row's
        # tier: mask by ``found``.
        in_lru = found & (self._tick[rows] < _FAR)
        in_lfu = found & ~in_lru
        res, pro = rows[in_lru], rows[in_lfu]
        n0, n1 = res.size, pro.size
        pins_outside = np.count_nonzero(self._pinned) - np.count_nonzero(
            self._pinned[res]
        )
        if n + pins_outside > self.lru_capacity:
            raise TierStateError(
                f"a MEM working set of {n} keys does not fit the "
                f"{self.lru_capacity}-row LRU tier beside the {pins_outside} "
                "rows other in-flight rounds hold pinned — the pinned "
                "working set must fit in memory (paper Section 5); raise "
                "mem_capacity_params or cache_lru_fraction"
            )
        # -- segment 1: LRU hits — ticks on known rows ------------------
        if n0:
            self._tick[res] = self._ticks(n0)
            self._count[res] += 1
            self.stats.hits += n0
            self.stats.admission_runs += 1
        # -- segment 2: LFU promotions — a metadata rewrite -------------
        if n1:
            # The capacity check guarantees the LRU tier's unpinned
            # non-union rows cover the demand (nothing spills), and every
            # promotion frees LFU room before a demotion needs it
            # (nothing flushes).
            overflow = max(0, self.n_lru + n1 - self.lru_capacity)
            victims = self._lru_victims(overflow) if overflow else _NO_SLOTS
            assert victims.size == overflow
            self._freq[pro] = _FAR
            self._ftick[pro] = _FAR
            self._tick[pro] = self._ticks(n1)
            self._count[pro] += 1
            self._to_lfu(victims, self._ticks(overflow))
            self.n_lru += n1 - overflow
            self.n_lfu += overflow - n1
            self.stats.hits += n1
            self.stats.admission_runs += 1
        # -- segment 3: misses — lookups never insert ------------------
        if n - n0 - n1:
            self.stats.misses += n - n0 - n1
            self.stats.admission_runs += 1
        return found, rows

    def _to_lfu(self, rows: np.ndarray, entry_ticks: np.ndarray) -> None:
        """Label ``rows`` LFU residents — frequency = their count — as a
        demotion does to unpinned LRU rows (the value stays put)."""
        self._tick[rows] = _FAR
        self._freq[rows] = self._count[rows]
        self._ftick[rows] = entry_ticks

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
        values[hit] = self._values[rows[hit]]
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
        The demotion stream the LFU admits is the victims in eviction
        order, then — when an unpinned batch outruns the free + unpinned
        LRU rows — its own earliest positions, *spilled* straight
        through with a fresh count of 1 (exactly as the seed scan
        reached them).  :func:`_greedy_evictions` solves that stream
        against the LFU residents in one pass; an arrival may be flushed
        inside the very insert that demoted it.

        ``rows[i]`` is the row ``keys[i]`` landed in, -1 for a spilled
        key (one that survives LFU admission is resident, in an LFU row
        it is not told).  A pinned batch cannot spill and raises
        :class:`~repro.errors.TierStateError`, cache untouched; so does a
        resident key, and a repeated key raises ``ValueError``.

        ``assume_unique`` is accepted and ignored (keys are always
        unique) only because the frozen ``benchmarks/hps/micro.py``
        passes it; drop at benchmark v2.
        """
        keys = as_keys(keys)
        vals = np.asarray(values, dtype=np.float32)
        if vals.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        n = keys.size
        if n == 0:
            return (*_empty_pairs(self.value_dim), _NO_SLOTS.copy())
        if not all_unique(keys):
            raise ValueError("put_batch requires unique keys")
        index = self._index
        at, resident = index.get(keys)
        if resident.any():
            row = at[resident][0]
            tier = "LRU" if self._tick[row] < _FAR else "LFU"
            raise TierStateError(
                "put_batch inserts absent keys only, but "
                f"{int(self._keys[row])} is already {tier}-resident — "
                "update resident values through their rows (update_rows)"
            )
        # 1. LRU victims, and the batch positions that spill past them.
        overflow = max(0, self.n_lru + n - self.lru_capacity)
        victims = self._lru_victims(overflow) if overflow else _NO_SLOTS
        nv = victims.size
        n_spill = overflow - nv
        if n_spill and pin:
            raise TierStateError(_PINNED_MSG)
        # 2. LFU admission of the demotion stream [victims, spilled].
        # Arrival j (0-based) becomes an eviction candidate once its
        # insert has happened: eviction slot t (0-based) precedes insert
        # free0 + t, so arrival j needs slot t >= j - free0 + 1.
        free0 = self.lfu_capacity - self.n_lfu
        n_evict = max(0, overflow - free0)
        taken_d = np.zeros(overflow, dtype=bool)
        fkeys, fvals = _empty_pairs(self.value_dim)
        if n_evict:
            d_freq = np.concatenate(
                [self._count[victims], np.ones(n_spill, dtype=np.int64)]
            )
            d_release = np.maximum(
                0, np.arange(overflow, dtype=np.int64) - free0 + 1
            )
            pool = self._pool_candidates(n_evict)
            pool_slot, d_slot = _greedy_evictions(
                self._freq[pool], self._ftick[pool], d_freq, d_release, n_evict
            )
            taken_pool = pool_slot >= 0
            taken_d = d_slot >= 0
            # A victim flushed in the insert that demoted it still owns
            # its row: flush from it like a pool row.  Spilled arrivals
            # never had one and leave straight from the batch.
            out = np.concatenate([pool[taken_pool], victims[taken_d[:nv]]])
            order = np.argsort(
                np.concatenate([pool_slot[taken_pool], d_slot[taken_d]]),
                kind="stable",
            )
            fkeys = np.concatenate(
                [self._keys[out], keys[:n_spill][taken_d[nv:]]]
            )[order]
            fvals = take_rows(
                np.concatenate(
                    [take_rows(self._values, out), vals[:n_spill][taken_d[nv:]]]
                ),
                order,
            )
            # 3. The flushed rows leave the index and free their rows.
            index.remove(self._keys[out])
            self._keys[out] = EMPTY_KEY
            self._tick[out] = _FAR
            self._freq[out] = _FAR
            self._ftick[out] = _FAR
            self._free[self._n_free : self._n_free + out.size] = out
            self._n_free += out.size
        entry_ticks = self._ticks(overflow)[~taken_d]
        stay = victims[~taken_d[:nv]]
        self._to_lfu(stay, entry_ticks[: stay.size])
        # 4. Only now do the batch's keys allocate: the landed ones as
        # LRU rows, spilled survivors (ahead of them) as LFU rows.
        ticks = self._ticks(n)[n_spill:]
        if n_spill:
            entering = np.ones(n, dtype=bool)
            entering[:n_spill] = ~taken_d[nv:]
            keys, vals = keys[entering], vals[entering]
        new = self._alloc(keys.size)
        n_spilled = new.size - ticks.size
        spilled, landed = new[:n_spilled], new[n_spilled:]
        self._keys[new] = keys
        put_rows(self._values, new, vals)
        self._dirty[new] = True
        self._count[new] = 1
        self._freq[spilled] = 1
        self._ftick[spilled] = entry_ticks[stay.size :]
        self._tick[landed] = ticks
        self._pinned[landed] = pin
        index.set(keys, new)
        self.n_lru += landed.size - nv
        self.n_lfu += overflow - fkeys.size
        self.stats.admission_runs += 1
        rows = _full_i64(n, -1)
        rows[n_spill:] = landed
        return fkeys, fvals, rows

    # -- row ops ---------------------------------------------------------
    # A resident key's row is stable for its whole residency, and a
    # pinned row is never an eviction victim, so it stays resident — and
    # in the LRU tier — until unpinned.  Callers that pin a working set
    # therefore keep the rows the resolve and the insert handed back and
    # read, write and unpin through them without further SlotIndex
    # probes.  Rows range over the whole slab.
    def pin_rows(self, rows: np.ndarray) -> None:
        """Pin LRU-resident rows (a resolve's hits)."""
        self._pinned[rows] = True

    def unpin_rows(self, rows: np.ndarray) -> None:
        """Release pins at resolved rows."""
        self._pinned[rows] = False

    def pinned_count(self) -> int:
        return int(self._pinned.sum())

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite values at pinned rows (no metadata changes)."""
        put_rows(self._values, rows, values)
        self._dirty[rows] = True

    def values_at(self, rows: np.ndarray) -> np.ndarray:
        """Read values at pinned rows — a pure slab gather, touching
        neither recency nor hit/miss statistics."""
        return take_rows(self._values, rows)

    def peek_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only batch lookup — one probe, one gather: no recency,
        frequency, or stats."""
        rows, found = self._index.get(as_keys(keys))
        values = take_rows(self._values, rows)
        values[~found] = 0.0
        return values, found

    # -- snapshots -------------------------------------------------------
    def _require_unpinned(self) -> None:
        if self._pinned.any():
            raise TierStateError(
                "cannot snapshot a cache with pinned entries — finish the "
                "in-flight batch first"
            )

    def export_state(self) -> dict[str, np.ndarray]:
        """Replacement-exact snapshot of both tiers (checkpointing).

        Per tier the entries come out in *tick order* (oldest first)
        together with the replacement metadata that decides future
        evictions — LRU access counts, LFU frequencies.  Re-ingesting the
        snapshot through :meth:`load_state` therefore reproduces not just
        the resident values but the exact future eviction sequence: ticks
        are only ever compared relatively, so re-assigning them in
        snapshot order is equivalence-preserving.  Rows are not part of
        a snapshot — the policy cannot observe them.

        The snapshot is only well-defined at a batch boundary: pinned
        entries belong to an in-flight batch and have no on-disk meaning,
        so this, :meth:`export_delta` and :meth:`mark_snapshot` refuse
        while any are held (:class:`~repro.errors.TierStateError`) —
        the refusal a checkpoint taken mid-round meets.
        """
        self._require_unpinned()
        lru, lfu = self._tier_rows(self._tick), self._tier_rows(self._ftick)
        return {
            "lru_keys": self._keys[lru],
            "lru_values": take_rows(self._values, lru),
            "lru_counts": self._count[lru],
            "lfu_keys": self._keys[lfu],
            "lfu_values": take_rows(self._values, lfu),
            "lfu_freqs": self._count[lfu],
            "hits": np.int64(self.stats.hits),
            "misses": np.int64(self.stats.misses),
        }

    def _validated(self, state: dict[str, np.ndarray]) -> list[tuple]:
        """Check a snapshot is a state this cache can be in; returns
        ``[(keys, values, counts)]`` for the LRU then the LFU tier.

        Runs before :meth:`load_state` mutates anything, so a refused
        snapshot leaves the cache as it was: array lengths, counts ≥ 1,
        tier capacities, and every key in exactly one row of one tier
        (a repeat would leave two rows behind one index entry).
        """
        tiers = []
        for tier, meta, cap in (
            ("lru", "lru_counts", self.lru_capacity),
            ("lfu", "lfu_freqs", self.lfu_capacity),
        ):
            keys = as_keys(state[f"{tier}_keys"])
            values = np.asarray(state[f"{tier}_values"], dtype=np.float32)
            counts = np.asarray(state[meta], dtype=np.int64)
            if values.shape != (keys.size, self.value_dim):
                raise ValueError(
                    f"cache snapshot value shape mismatch: {tier}_values is "
                    f"{values.shape} for {keys.size} {tier}_keys of width "
                    f"{self.value_dim}"
                )
            if counts.shape != (keys.size,):
                raise ValueError(
                    f"cache snapshot {meta} has shape {counts.shape} for "
                    f"{keys.size} {tier}_keys"
                )
            if counts.size and int(counts.min()) < 1:
                raise ValueError(
                    f"cache snapshot {meta} must be >= 1 (key "
                    f"{int(keys[counts.argmin()])} has {int(counts.min())})"
                )
            if keys.size > cap:
                raise ValueError(
                    f"cache snapshot does not fit this cache's tier "
                    f"capacities: {keys.size} {tier}_keys for {cap} rows"
                )
            tiers.append((keys, values, counts))
        all_keys = np.sort(np.concatenate([tiers[0][0], tiers[1][0]]))
        repeat = np.flatnonzero(all_keys[1:] == all_keys[:-1])
        if repeat.size:
            raise ValueError(
                f"cache snapshot holds key {int(all_keys[repeat[0]])} more "
                "than once — a resident key sits in one row of one tier"
            )
        if all_keys.size:
            check_key_cap(int(all_keys[-1]), "cache snapshot")
        return tiers

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild both tiers from an :meth:`export_state` snapshot
        (validated first — a refused snapshot changes nothing).  The
        loaded cache is unmarked: its reader calls :meth:`mark_snapshot`
        once the whole chain is in."""
        (lru_keys, lru_values, lru_counts), (lfu_keys, lfu_values, lfu_freqs) = (
            self._validated(state)
        )
        self._reset()
        self._mark = None  # until the checkpoint reader marks it
        # Snapshot order is tick order: fresh ascending ticks preserve
        # every relative comparison the policy makes.
        lru, lfu = self._alloc(lru_keys.size), self._alloc(lfu_keys.size)
        new = np.concatenate([lru, lfu])
        keys = np.concatenate([lru_keys, lfu_keys])
        self._keys[new] = keys
        put_rows(self._values, lru, lru_values)
        put_rows(self._values, lfu, lfu_values)
        self._count[lru] = lru_counts
        self._tick[lru] = self._ticks(lru.size)
        self._count[lfu] = lfu_freqs
        self._to_lfu(lfu, self._ticks(lfu.size))
        self._index.set(keys, new)
        self.n_lru, self.n_lfu = lru.size, lfu.size
        self.stats.hits = int(state["hits"])
        self.stats.misses = int(state["misses"])

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff the cache against the snapshot it was last marked at.

        Per tier, in tier order, the entries split in two.  The *kept*
        ones carry a tick from before the mark and were not written
        since: untouched, so still in base order with base counts and
        values — a packed bitmask over the base tier names them
        (``{tier}_kept``).  Every later entry was reordered since the
        mark (a tick is fresh on every access, insert, promotion and
        demotion): it ships its key and count, a packed mask of which
        rows were written since the mark (``{tier}_dirty`` — inserted by
        :meth:`put_batch` or overwritten by :meth:`update_rows`, the
        only two value writers) and values for those rows only.  A row
        that merely moved tiers ships no value.

        A cache that holds no mark — fresh, or loaded and not yet marked
        — has nothing to diff against: :class:`TierStateError`.
        """
        self._require_unpinned()
        if self._mark is None:
            raise TierStateError(
                "MEM cache holds no snapshot mark to diff against — "
                "mark_snapshot() once a full snapshot or a restore commits"
            )
        clock, *base_sizes = self._mark
        delta: dict[str, np.ndarray] = {}
        for (tier, meta, field), n_base in zip(_TIERS, base_sizes):
            order = getattr(self, field)
            rows = self._tier_rows(order)
            moved = (order[rows] > clock) | self._dirty[rows]
            cut = int(moved.argmax()) if moved.any() else rows.size
            kept = np.zeros(n_base, dtype=bool)
            kept[order[rows[:cut]]] = True  # a kept tick is its base position
            tail = rows[cut:]
            dirty = self._dirty[tail]
            delta[f"{tier}_kept"] = np.packbits(kept)
            delta[f"{tier}_keys"] = self._keys[tail]
            delta[meta] = self._count[tail]
            delta[f"{tier}_dirty"] = np.packbits(dirty)
            delta[f"{tier}_values"] = take_rows(self._values, tail[dirty])
        delta["hits"] = np.int64(self.stats.hits)
        delta["misses"] = np.int64(self.stats.misses)
        return delta

    def mark_snapshot(self) -> None:
        """The state as of now is a committed snapshot: the next
        :meth:`export_delta` diffs against it.  Each tier's ticks are
        renumbered to the residents' positions in the tier, order kept
        (ticks are only compared within a tier, as :meth:`load_state`
        relies on too), and the clock moves past them: a tick no larger
        than the mark's clock names a base position.  Called by the
        checkpoint writer after the manifest commits (or a restore
        finishes loading) — never by an export, so a save that dies
        mid-write leaves the mark where it was."""
        self._require_unpinned()
        lru, lfu = self._tier_rows(self._tick), self._tier_rows(self._ftick)
        self._tick[lru] = np.arange(lru.size)
        self._ftick[lfu] = np.arange(lfu.size)
        self._now = max(lru.size, lfu.size)
        self._dirty[:] = False
        self._mark = (self._now, lru.size, lfu.size)

    def fold_delta(
        self, base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The :meth:`export_state` snapshot an :meth:`export_delta` diff
        describes, built on ``base`` — the snapshot it was diffed against.

        Pure: neither input nor the cache is touched, and the result
        shares no memory with either.  Per tier the kept base entries
        come first, in base order, then the delta's entries; a value the
        delta did not ship is unchanged since the base and is taken from
        there by key — a key the base lacks, or a mask that does not fit
        the base, means the wrong base.  :meth:`load_state` validates
        the result.
        """
        base_keys = np.concatenate([as_keys(base["lru_keys"]), as_keys(base["lfu_keys"])])
        base_values = np.concatenate([base["lru_values"], base["lfu_values"]])
        index = SlotIndex()
        index.set(base_keys, np.arange(base_keys.size))
        state: dict[str, np.ndarray] = {}
        for tier, meta, _ in _TIERS:
            keys = as_keys(delta[f"{tier}_keys"])
            dirty = _unpacked(delta, f"{tier}_dirty", keys.size, f"{tier}_keys")
            shipped = np.asarray(delta[f"{tier}_values"], dtype=np.float32)
            n_dirty = int(np.count_nonzero(dirty))
            if shipped.shape != (n_dirty, self.value_dim):
                raise ValueError(
                    f"cache delta {tier}_values is {shipped.shape} for "
                    f"{n_dirty} dirty {tier}_keys of width {self.value_dim}"
                )
            values = np.empty((keys.size, self.value_dim), dtype=np.float32)
            values[dirty] = shipped
            rows, found = index.get(keys[~dirty])
            if not found.all():
                raise ValueError(
                    "cache delta carries values for keys absent from the "
                    f"base, e.g. {keys[~dirty][~found][:5].tolist()} — wrong base?"
                )
            values[~dirty] = take_rows(base_values, rows)
            tier_keys = as_keys(base[f"{tier}_keys"])
            kept = _unpacked(
                delta, f"{tier}_kept", tier_keys.size, f"base {tier}_keys"
            )
            state[f"{tier}_keys"] = np.concatenate([tier_keys[kept], keys])
            state[f"{tier}_values"] = np.concatenate(
                [np.compress(kept, base[f"{tier}_values"], axis=0), values]
            )
            state[meta] = np.concatenate(
                [np.asarray(base[meta], dtype=np.int64)[kept], delta[meta]]
            )
        state["hits"] = np.int64(delta["hits"])
        state["misses"] = np.int64(delta["misses"])
        return state

