"""In-memory parameter caches (paper Section 5, Appendix D).

The MEM-PS eviction policy combines LRU and LFU: every visited parameter
enters an **LRU** cache; LRU evictions fall into an **LFU** cache; LFU
evictions must be flushed to the SSD before their memory is released.
Working parameters of in-flight batches are **pinned** in the LRU and
cannot be evicted until their batch completes (pipeline integrity).

Storage is batch-first (the :class:`~repro.store.ParameterStore`
protocol): values live in a preallocated ``(capacity, value_dim)``
float32 slab with parallel NumPy key/recency/frequency/pin arrays, keys
resolve to slab rows through a vectorized open-addressing
:class:`~repro.store.SlotIndex`, and eviction selects victims with
``argpartition`` over the recency/priority arrays.  Batched operations
are **sequential-equivalent**: ``get_batch``/``put_batch`` produce the
same eviction order, flush pairs, and statistics as looping the scalar
:meth:`get`/:meth:`put` over the batch (the test suite holds them to
that, and to the seed dict-based caches kept under ``tests/``).

Admission is **bulk-exact**: the interleavings a single dense plan
cannot reproduce — a duplicate key re-entering the batch, a resident
batch key sitting inside the eviction frontier, an LFU-resident key
while the LRU overflows — cut the batch into an *admission plan*: a
sequence of collision-free runs found with one vectorized
prefix scan per run (eviction-frontier ranks vs. cumulative overflow,
duplicate boundaries from one stable sort, LFU-residency × overflow),
each run applied with the existing dense slab ops and the eviction
frontier recomputed only at run boundaries.  Collision positions
themselves become single-key runs applied with the exact scalar op, so
the scalar work is O(runs), not O(keys).

:class:`LRUCache` and :class:`LFUCache` are also usable standalone — the
cache-policy ablation benchmark compares them against the combined policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.store.slot_index import SlotIndex
from repro.utils.keys import EMPTY_KEY, KEY_DTYPE, as_keys, mix_hash

__all__ = ["LRUCache", "LFUCache", "CombinedCache", "CacheStats"]

#: Order sentinel for free slots — sorts after every live tick/priority.
_FAR = np.int64(2**62)


def _full_i64(n: int, value) -> np.ndarray:
    """``np.full(n, value, dtype=int64)`` without the broadcast wrapper.

    The admission hot paths allocate thousands of small sentinel-filled
    arrays per round; ``empty`` + C-level ``fill`` skips ``np.full``'s
    fill-value coercion and ``copyto`` broadcast machinery.
    """
    out = np.empty(n, dtype=np.int64)
    out.fill(value)
    return out


def _prev_occurrence(keys: np.ndarray) -> np.ndarray | None:
    """``prev[i]`` = index of the previous occurrence of ``keys[i]``, or -1.

    One stable argsort: equal keys stay in batch order, so each sorted
    neighbor pair of equal keys is a (previous, next) occurrence pair.
    The admission planner cuts a run wherever ``prev[i] >= run_start`` —
    a duplicate re-entering the current run.  Returns None when the keys
    are strictly increasing (sorted working sets, the planned hot path),
    so duplicate-free batches pay an O(n) scan, not an argsort.
    """
    if keys.size <= 1 or bool(np.all(keys[1:] > keys[:-1])):
        return None
    prev = _full_i64(keys.size, -1)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    same = np.flatnonzero(sk[1:] == sk[:-1]) + 1
    prev[order[same]] = order[same - 1]
    return prev


def _run_cut(ok: np.ndarray) -> int:
    """Length of the leading True prefix of a monotone validity mask."""
    if ok.all():
        return int(ok.size)
    return int(np.argmax(~ok))


def _dup_bound(prev_dup: np.ndarray | None, start: int, n: int) -> int:
    """First position at/after ``start`` where a duplicate re-enters.

    A run can never cross it, so every per-run remainder slice stops
    here — duplicate-heavy batches cost one bounded probe per run
    instead of re-probing the whole tail (O(n·runs) → O(n) probes).
    """
    if prev_dup is None:
        return n
    cuts = np.flatnonzero(prev_dup[start:] >= start)
    return start + int(cuts[0]) if cuts.size else n

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
    """Hit/miss counters (drives the Fig. 4(c) reproduction) plus the
    admission engine's accounting: ``admission_runs`` bulk runs applied
    and ``collision_splits`` single-key runs forced by a collision with
    the eviction frontier."""

    hits: int = 0
    misses: int = 0
    admission_runs: int = 0
    collision_splits: int = 0

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
        self.collision_splits = 0


def _empty_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return as_keys([]), np.zeros((0, dim), dtype=np.float32)


def _as_pairs(pairs: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if not pairs:
        return _empty_pairs(dim)
    fk = as_keys([k for k, _ in pairs])
    fv = np.stack([v for _, v in pairs]).astype(np.float32)
    return fk, fv


class _SlabCache:
    """Shared slab plumbing for the LRU and LFU tiers.

    A fixed pool of ``capacity`` rows; ``_index`` maps keys to rows,
    ``_free`` is a stack of unused rows.  Subclasses add the replacement
    metadata (recency ticks / frequency+tick priorities).
    """

    def __init__(
        self,
        capacity: int,
        value_dim: int | None,
        key_domain: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.value_dim = value_dim
        self._index = SlotIndex(capacity, key_domain=key_domain)
        self._keys = np.full(capacity, EMPTY_KEY, dtype=KEY_DTYPE)
        self._values: np.ndarray | None = None
        if value_dim is not None:
            self._bind_dim(value_dim)
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._n_free = capacity
        self._now = 0
        #: standalone-tier admission accounting (the combined policy
        #: tracks the same two counters on its :class:`CacheStats`).
        self.admission_runs = 0
        self.collision_splits = 0

    def _bind_dim(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("value_dim must be positive")
        self.value_dim = dim
        self._values = np.zeros((self.capacity, dim), dtype=np.float32)

    def _coerce_value(self, value) -> np.ndarray:
        v = np.asarray(value, dtype=np.float32).reshape(-1)
        if self._values is None:
            self._bind_dim(v.size)
        elif v.size != self.value_dim:
            raise ValueError("value size mismatch")
        return v

    def _coerce_values(self, keys: np.ndarray, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.float32)
        if v.ndim != 2 or v.shape[0] != keys.size:
            raise ValueError("values shape mismatch")
        if self._values is None:
            self._bind_dim(v.shape[1])
        elif v.shape[1] != self.value_dim:
            raise ValueError("values shape mismatch")
        return v

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

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        return self._index.get1(int(key)) >= 0

    def _dim_or_zero(self) -> int:
        return self.value_dim if self.value_dim is not None else 0

    def _items_in_order(self, order_key: np.ndarray):
        """Resident ``(slots, keys)`` sorted by ``order_key`` per slot."""
        occupied = np.flatnonzero(self._keys != EMPTY_KEY)
        occupied = occupied[np.argsort(order_key[occupied], kind="stable")]
        return occupied, self._keys[occupied]

    def contains(self, keys) -> np.ndarray | bool:
        if np.isscalar(keys) or isinstance(keys, (int, np.integer)):
            return int(keys) in self
        _, found = self._index.get(as_keys(keys))
        return found

    def transform(self, keys: np.ndarray, fn) -> None:
        """Apply ``new = fn(old)`` to resident ``keys`` (must all be
        resident, matching the HBM tier's contract)."""
        keys = as_keys(keys)
        if keys.size == 0:
            return
        slots, found = self._index.get(keys)
        if not np.all(found):
            missing = keys[~found][:5]
            raise KeyError(f"transform on absent keys, e.g. {missing.tolist()}")
        self._values[slots] = np.asarray(
            fn(self._values[slots]), dtype=np.float32
        )

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident ``(keys, values)``, sorted by key."""
        occupied = np.flatnonzero(self._keys != EMPTY_KEY)
        keys = self._keys[occupied]
        order = np.argsort(keys)
        if self._values is None:
            return keys[order], np.zeros((keys.size, 0), dtype=np.float32)
        return keys[order], self._values[occupied[order]].copy()


class LRUCache(_SlabCache):
    """Least-recently-used cache with pin support.

    Recency is a monotone per-slot tick: a touch rewrites the slot's
    tick; eviction takes the smallest ticks among unpinned residents
    (``argpartition``), skipping pinned rows exactly as the seed dict
    scan did.
    """

    def __init__(
        self,
        capacity: int,
        *,
        value_dim: int | None = None,
        key_domain: int | None = None,
    ) -> None:
        super().__init__(capacity, value_dim, key_domain)
        self._tick = np.full(capacity, _FAR, dtype=np.int64)
        self._pinned = np.zeros(capacity, dtype=bool)

    # -- single-key API (exact seed semantics) --------------------------
    def get(self, key: int) -> np.ndarray | None:
        """Value for ``key`` (refreshing its recency), or None."""
        slot = self._index.get1(int(key))
        if slot < 0:
            return None
        self._now += 1
        self._tick[slot] = self._now
        return self._values[slot].copy()

    def peek(self, key: int) -> np.ndarray | None:
        """Value without touching recency."""
        slot = self._index.get1(int(key))
        if slot < 0:
            return None
        return self._values[slot].copy()

    def _eviction_order_key(self) -> np.ndarray:
        """Per-slot sort key: recency tick, pinned/free pushed to +inf."""
        return np.where(self._pinned, _FAR, self._tick)

    def _oldest_unpinned_slot(self) -> int:
        order = self._eviction_order_key()
        slot = int(np.argmin(order))
        return slot if order[slot] < _FAR else -1

    def _remove_slot(self, slot: int) -> None:
        self._index.remove1(int(self._keys[slot]))
        self._keys[slot] = EMPTY_KEY
        self._tick[slot] = _FAR
        self._pinned[slot] = False
        self._release(np.array([slot], dtype=np.int64))

    def _remove_slots(self, slots: np.ndarray) -> None:
        if slots.size == 0:
            return
        self._index.remove(self._keys[slots])
        self._keys[slots] = EMPTY_KEY
        self._tick[slots] = _FAR
        self._pinned[slots] = False
        self._release(slots)

    def _insert_slot(self, key: int, value: np.ndarray, pin: bool) -> int:
        slot = int(self._alloc(1)[0])
        self._keys[slot] = np.uint64(key)
        self._values[slot] = value
        self._now += 1
        self._tick[slot] = self._now
        self._pinned[slot] = pin
        self._index.set1(int(key), slot)
        return slot

    def put(self, key: int, value: np.ndarray, *, pin: bool = False) -> list:
        """Insert/overwrite ``key``; returns evicted ``(key, value)`` pairs."""
        key = int(key)
        v = self._coerce_value(value)
        slot = self._index.get1(key)
        if slot >= 0:
            self._values[slot] = v
            self._now += 1
            self._tick[slot] = self._now
            if pin:
                self._pinned[slot] = True
            return []
        evicted = []
        if self.size >= self.capacity:
            vslot = self._oldest_unpinned_slot()
            if vslot < 0:
                if pin:
                    raise RuntimeError(_PINNED_MSG)
                # Everything resident is pinned: the seed scan reached the
                # freshly inserted (unpinned) key and evicted it again.
                return [(key, v.copy())]
            evicted.append((int(self._keys[vslot]), self._values[vslot].copy()))
            self._remove_slot(vslot)
        self._insert_slot(key, v, pin)
        return evicted

    def evict_overflow(self) -> list:
        """Evict unpinned keys (oldest first) until within capacity."""
        overflow = self.size - self.capacity
        if overflow <= 0:
            return []
        slots = self._select_evictions(overflow)
        if slots.size < overflow:
            raise RuntimeError(_PINNED_MSG)
        evicted = [
            (int(self._keys[s]), self._values[s].copy()) for s in slots
        ]
        self._remove_slots(slots)
        return evicted

    def _select_evictions(
        self, n: int, order: np.ndarray | None = None
    ) -> np.ndarray:
        """Up to ``n`` unpinned resident slots, oldest tick first.

        ``order`` lets a caller that already materialized
        :meth:`_eviction_order_key` avoid a second O(capacity) scan.
        """
        if order is None:
            order = self._eviction_order_key()
        n = min(n, order.size)
        cand = np.argpartition(order, n - 1)[:n] if n < order.size else (
            np.arange(order.size)
        )
        cand = cand[order[cand] < _FAR]
        return cand[np.argsort(order[cand], kind="stable")]

    def pin(self, key: int) -> None:
        slot = self._index.get1(int(key))
        if slot < 0:
            raise KeyError(f"cannot pin absent key {key}")
        self._pinned[slot] = True

    def unpin(self, key: int) -> None:
        slot = self._index.get1(int(key))
        if slot >= 0:
            self._pinned[slot] = False

    def pin_batch(self, keys: np.ndarray) -> None:
        keys = as_keys(keys)
        slots, found = self._index.get(keys)
        if not np.all(found):
            raise KeyError(
                f"cannot pin absent key {int(keys[~found][0])}"
            )
        self._pinned[slots] = True

    def unpin_batch(self, keys: np.ndarray) -> None:
        slots, found = self._index.get(as_keys(keys))
        self._pinned[slots[found]] = False

    def pinned_count(self) -> int:
        return int(self._pinned.sum())

    def keys(self) -> list[int]:
        _, keys = self._items_in_order(self._tick)
        return keys.tolist()

    # -- batched API ----------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values + found mask; refreshes recency of every hit."""
        keys = as_keys(keys)
        values = np.zeros((keys.size, self._dim_or_zero()), dtype=np.float32)
        if keys.size == 0:
            return values, np.zeros(0, dtype=bool)
        slots, found = self._index.get(keys)
        hit_slots = slots[found]
        if hit_slots.size:
            values[found] = self._values[hit_slots]
            self._tick[hit_slots] = self._ticks(hit_slots.size)
        return values, found

    def put_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        pin: bool = False,
        assume_unique: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Insert/overwrite many keys; returns evicted ``(keys, values)``.

        Sequential-equivalent to per-key :meth:`put` calls in batch
        order.  The batch is applied as an admission plan: collision-free
        runs go through the dense bulk path, positions colliding with the
        eviction frontier (or re-entering as duplicates) become
        single-key runs applied with the exact scalar :meth:`put`.
        ``assume_unique=True`` skips the duplicate-boundary pass for
        callers whose keys are unique by construction (the BatchPlan).
        """
        keys = as_keys(keys)
        vals = self._coerce_values(keys, values)
        if keys.size == 0:
            return _empty_pairs(self._dim_or_zero())
        prev_dup = None if assume_unique else _prev_occurrence(keys)
        hashes = _batch_hashes(keys, self._index)
        ek_parts: list[np.ndarray] = []
        ev_parts: list[np.ndarray] = []
        s, n = 0, keys.size
        while s < n:
            bound = _dup_bound(prev_dup, s, n)
            rem = keys[s:bound]
            h = None if hashes is None else hashes[s:bound]
            rows, resident, hints = self._index.locate(rem, h)
            run, order = self._admission_run_length(
                inserts=~resident,
                res_slots=np.where(resident, rows, -1),
                blocked=None,
                allow_spill=True,
            )
            if run == 0:
                self.collision_splits += 1
                pairs = self.put(int(keys[s]), vals[s], pin=pin)
                if pairs:
                    pk, pv = _as_pairs(pairs, self.value_dim)
                    ek_parts.append(pk)
                    ev_parts.append(pv)
                s += 1
                continue
            e = s + run
            plan = self._plan_put(
                rem[:run], vals[s:e], pin, (rows[:run], resident[:run]), order
            )
            assert plan is not None  # guaranteed by the run conditions
            ek, ev, _, _, _ = self._apply_put(
                plan, None if h is None else h[:run], hints[:run]
            )
            if ek.size:
                ek_parts.append(ek)
                ev_parts.append(ev)
            self.admission_runs += 1
            s = e
        if not ek_parts:
            return _empty_pairs(self.value_dim)
        return (
            np.concatenate(ek_parts).astype(KEY_DTYPE),
            np.concatenate(ev_parts, axis=0),
        )

    # -- bulk planning (shared with CombinedCache) ----------------------
    def _admission_run_length(
        self,
        *,
        inserts: np.ndarray,
        res_slots: np.ndarray,
        blocked: np.ndarray | None,
        allow_spill: bool,
    ) -> tuple[int, np.ndarray | None]:
        """Longest bulk-exact prefix of the remaining batch (may be 0).

        The remainder is already duplicate-bounded (:func:`_dup_bound`),
        and the remaining conditions are individually monotone over
        prefixes, so their conjunction's leading True prefix is the
        maximal exact run:

        * ``inserts`` marks positions allocating a fresh LRU row; their
          cumulative count beyond the free rows is the run's eviction
          demand ``E``.
        * ``res_slots`` carries the current slot of still-resident
          positions (-1 otherwise).  A resident slot whose rank in the
          eviction order falls below ``E`` would sequentially be evicted
          (or shift the victim set) before its own turn — a collision.
        * ``blocked`` positions are illegal in any run that evicts
          (LFU-resident keys of a combined put: their pop interleaves
          with the demotion stream).
        * without ``allow_spill``, ``E`` may not exceed the unpinned
          resident supply (the combined get's promotions never spill).

        Returns ``(run_length, eviction_order_key | None)`` — the order
        array is handed back so the run's apply step reuses it instead
        of rescanning the slab (None when the remainder evicts nothing).
        """
        free0 = np.int64(self.capacity - self.size)
        E = np.cumsum(inserts.astype(np.int64)) - free0
        np.maximum(E, 0, out=E)
        e_max = int(E[-1])
        if e_max == 0:
            # Eviction-free remainder: nothing can collide with a
            # frontier that never forms.
            return int(inserts.size), None
        # Only the ``e_max`` oldest unpinned residents can ever be
        # victims; rank just those (argpartition, not a full sort).
        order = self._eviction_order_key()
        frontier = self._select_evictions(e_max, order)
        rank = np.full(self.capacity, _FAR, dtype=np.int64)
        rank[frontier] = np.arange(frontier.size, dtype=np.int64)
        pos_rank = np.where(res_slots >= 0, rank[np.maximum(res_slots, 0)], _FAR)
        ok = np.minimum.accumulate(pos_rank) >= E
        if not allow_spill:
            ok &= E <= int((order < _FAR).sum())
        if blocked is not None:
            ok &= ~(np.logical_or.accumulate(blocked) & (E > 0))
        return _run_cut(ok), order

    def _plan_put(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        pin: bool,
        located,
        order: np.ndarray | None = None,
    ):
        """Plan a sequential-equivalent bulk insert, or None → not exact.

        The plan is exact when keys are unique and no already-resident
        batch key sits inside the eviction range (sequentially it would
        be evicted with its *old* value before its own turn refreshed it).
        The admission planner guarantees both per run, so its calls never
        get None; it hands in the ``(slots, resident)`` pair it already
        ``located`` and the ``order`` array it already materialized.
        """
        slots, resident = located
        n_new = int((~resident).sum())
        overflow = max(0, self.size + n_new - self.capacity)
        old_sel = np.empty(0, dtype=np.int64)
        spill = np.empty(0, dtype=np.int64)
        if overflow:
            old_sel = self._select_evictions(overflow, order)
            if np.isin(old_sel, slots[resident]).any():
                return None
            if old_sel.size < overflow:
                # Unpinned-resident supply runs out mid-batch: the
                # earliest eligible batch positions are themselves
                # evicted, exactly as the seed scan reached them.
                if pin:
                    raise RuntimeError(_PINNED_MSG)
                eligible = np.flatnonzero(
                    ~(resident & self._pinned[np.where(resident, slots, 0)])
                )
                extra = overflow - old_sel.size
                if eligible.size < extra:
                    raise RuntimeError(_PINNED_MSG)
                spill = eligible[:extra]
        return keys, vals, pin, slots, resident, old_sel, spill

    def _apply_put(
        self,
        plan,
        hashes: np.ndarray | None = None,
        hints: np.ndarray | None = None,
    ):
        """Execute a bulk-put plan.

        Returns ``(evicted_keys, evicted_values, spill_positions,
        new_positions, new_rows)`` with evictions in sequential order:
        previously-resident victims by recency, then batch positions
        spilled from the insert stream.  ``new_positions``/``new_rows``
        report where freshly inserted batch keys landed, so the owner can
        write aligned per-slot metadata without another index lookup.
        """
        keys, vals, pin, slots, resident, old_sel, spill = plan
        n = keys.size
        ev_keys = [self._keys[old_sel], keys[spill]]
        ev_vals = [
            self._values[old_sel].copy()
            if old_sel.size
            else np.zeros((0, self.value_dim), dtype=np.float32),
            vals[spill],
        ]
        self._remove_slots(old_sel)
        ticks = self._ticks(n)
        # Refresh already-resident batch keys in place.
        res_slots = slots[resident]
        if res_slots.size:
            self._values[res_slots] = vals[resident]
            self._tick[res_slots] = ticks[resident]
            if pin:
                self._pinned[res_slots] = True
        # Drop spilled positions (resident ones leave, new ones never land).
        new_idx = np.flatnonzero(~resident)
        if spill.size:
            self._remove_slots(slots[spill][resident[spill]])
            new_idx = new_idx[~np.isin(new_idx, spill)]
        rows = self._alloc(new_idx.size)
        if new_idx.size:
            self._keys[rows] = keys[new_idx]
            self._values[rows] = vals[new_idx]
            self._tick[rows] = ticks[new_idx]
            self._pinned[rows] = pin
            sub_hashes = hashes[new_idx] if hashes is not None else None
            if hints is not None:
                self._index.install(keys[new_idx], rows, hints[new_idx], sub_hashes)
            else:
                self._index.insert_absent(keys[new_idx], rows, sub_hashes)
        return (
            np.concatenate(ev_keys).astype(KEY_DTYPE),
            np.concatenate(ev_vals, axis=0),
            spill,
            new_idx,
            rows,
        )


class LFUCache(_SlabCache):
    """Least-frequently-used cache over frequency/tick priority arrays.

    Eviction takes the minimum frequency, ties broken by the oldest
    *bucket-entry* tick (the moment the key last changed frequency) —
    exactly the seed bucket implementation's least-recently-added rule.
    """

    def __init__(
        self,
        capacity: int,
        *,
        value_dim: int | None = None,
        key_domain: int | None = None,
    ) -> None:
        super().__init__(capacity, value_dim, key_domain)
        self._freq = np.full(capacity, _FAR, dtype=np.int64)
        self._tick = np.full(capacity, _FAR, dtype=np.int64)

    # -- single-key API (exact seed semantics) --------------------------
    def get(self, key: int) -> np.ndarray | None:
        slot = self._index.get1(int(key))
        if slot < 0:
            return None
        self._bump_slot(slot)
        return self._values[slot].copy()

    def _bump_slot(self, slot: int) -> None:
        self._freq[slot] += 1
        self._now += 1
        self._tick[slot] = self._now

    def frequency(self, key: int) -> int:
        slot = self._index.get1(int(key))
        return int(self._freq[slot]) if slot >= 0 else 0

    def _victim_slot(self) -> int:
        fmin = int(self._freq.min())
        if fmin >= int(_FAR):
            return -1
        cand = np.flatnonzero(self._freq == fmin)
        return int(cand[np.argmin(self._tick[cand])])

    def _remove_slot(self, slot: int) -> None:
        self._index.remove1(int(self._keys[slot]))
        self._keys[slot] = EMPTY_KEY
        self._freq[slot] = _FAR
        self._tick[slot] = _FAR
        self._release(np.array([slot], dtype=np.int64))

    def _remove_slots(self, slots: np.ndarray) -> None:
        if slots.size == 0:
            return
        self._index.remove(self._keys[slots])
        self._keys[slots] = EMPTY_KEY
        self._freq[slots] = _FAR
        self._tick[slots] = _FAR
        self._release(slots)

    def put(self, key: int, value: np.ndarray, *, freq: int = 1) -> list:
        """Insert/overwrite; returns evicted ``(key, value)`` pairs.

        ``freq`` seeds the frequency of a *new* key — the combined cache
        passes the access count accumulated in the LRU tier, so demoted
        hot parameters are not treated as cold.
        """
        if freq < 1:
            raise ValueError("freq must be >= 1")
        key = int(key)
        v = self._coerce_value(value)
        slot = self._index.get1(key)
        if slot >= 0:
            self._values[slot] = v
            self._bump_slot(slot)
            return []
        evicted = []
        if self.size >= self.capacity:
            vslot = self._victim_slot()
            evicted.append((int(self._keys[vslot]), self._values[vslot].copy()))
            self._remove_slot(vslot)
        row = int(self._alloc(1)[0])
        self._keys[row] = np.uint64(key)
        self._values[row] = v
        self._freq[row] = freq
        self._now += 1
        self._tick[row] = self._now
        self._index.set1(key, row)
        return evicted

    def pop(self, key: int) -> np.ndarray | None:
        """Remove ``key`` (promotion back into the LRU tier)."""
        slot = self._index.get1(int(key))
        if slot < 0:
            return None
        out = self._values[slot].copy()
        self._remove_slot(slot)
        return out

    def keys(self) -> list[int]:
        _, keys = self._items_in_order(self._tick)
        return keys.tolist()

    # -- batched API ----------------------------------------------------
    def get_batch(
        self, keys: np.ndarray, *, assume_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values + found mask; bumps the frequency of every hit."""
        keys = as_keys(keys)
        values = np.zeros((keys.size, self._dim_or_zero()), dtype=np.float32)
        if keys.size == 0:
            return values, np.zeros(0, dtype=bool)
        prev_dup = None if assume_unique else _prev_occurrence(keys)
        found = np.zeros(keys.size, dtype=bool)
        s, n = 0, keys.size
        while s < n:
            # A run always holds ≥ 1 key: prev_dup[s] < s by definition.
            e = _dup_bound(prev_dup, s, n)
            slots, ok = self._index.get(keys[s:e])
            hit = slots[ok]
            if hit.size:
                values[s:e][ok] = self._values[hit]
                self._freq[hit] += 1
                self._tick[hit] = self._ticks(hit.size)
            found[s:e] = ok
            self.admission_runs += 1
            s = e
        return values, found

    def put_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        freq: int = 1,
        assume_unique: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Insert many keys; returns evicted ``(keys, values)``.

        Admission-plan semantics: runs of fresh keys go through the exact
        bulk eviction plan (:meth:`bulk_insert`); runs containing
        resident overwrites are applied densely while they demand no
        eviction; a resident overwrite colliding with an eviction storm
        becomes a single-key scalar run.
        """
        keys = as_keys(keys)
        vals = self._coerce_values(keys, values)
        if keys.size == 0:
            return _empty_pairs(self._dim_or_zero())
        prev_dup = None if assume_unique else _prev_occurrence(keys)
        ek_parts: list[np.ndarray] = []
        ev_parts: list[np.ndarray] = []
        s, n = 0, keys.size
        while s < n:
            bound = _dup_bound(prev_dup, s, n)
            rem = keys[s:bound]
            slots, resident = self._index.get(rem)
            free0 = np.int64(self.capacity - self.size)
            E = np.cumsum((~resident).astype(np.int64)) - free0
            np.maximum(E, 0, out=E)
            # Resident overwrites bump mid-run state a static eviction
            # pool cannot see.  Under eviction pressure, first try the
            # extended plan that models the bumps as arrivals; only when
            # its safety precondition fails is the run cut.
            colliding = np.logical_or.accumulate(resident) & (E > 0)
            if colliding.any():
                out = self._mixed_bulk_insert(
                    rem, vals[s:bound], freq, slots, resident, E
                )
                if out is not None:
                    fk, fv = out
                    if fk.size:
                        ek_parts.append(fk)
                        ev_parts.append(fv)
                    self.admission_runs += 1
                    s = bound
                    continue
            run = _run_cut(~colliding)
            if run == 0:
                self.collision_splits += 1
                pairs = self.put(int(keys[s]), vals[s], freq=freq)
                if pairs:
                    pk, pv = _as_pairs(pairs, self.value_dim)
                    ek_parts.append(pk)
                    ev_parts.append(pv)
                s += 1
                continue
            e = s + run
            sub_res = resident[:run]
            if sub_res.any():
                # Eviction-free mixed run: dense overwrite + bump of the
                # residents, fresh rows for the rest, ticks in batch order.
                rs = slots[:run][sub_res]
                sub_vals = vals[s:e]
                self._values[rs] = sub_vals[sub_res]
                self._freq[rs] += 1
                new = ~sub_res
                rows = self._alloc(int(new.sum()))
                ticks = self._ticks(run)
                self._tick[rs] = ticks[sub_res]
                if rows.size:
                    new_keys = rem[:run][new]
                    self._keys[rows] = new_keys
                    self._values[rows] = sub_vals[new]
                    self._freq[rows] = freq
                    self._tick[rows] = ticks[new]
                    self._index.insert_absent(new_keys, rows)
            else:
                freqs = _full_i64(run, freq)
                fk, fv = self.bulk_insert(rem[:run], vals[s:e], freqs)
                if fk.size:
                    ek_parts.append(fk)
                    ev_parts.append(fv)
            self.admission_runs += 1
            s = e
        if not ek_parts:
            return _empty_pairs(self.value_dim)
        return (
            np.concatenate(ek_parts).astype(KEY_DTYPE),
            np.concatenate(ev_parts, axis=0),
        )

    def bulk_insert(
        self, keys: np.ndarray, vals: np.ndarray, freqs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequential-equivalent batch of seeded inserts of *new* keys.

        ``keys`` must be unique and disjoint from current residents (the
        demotion stream of the combined policy is both by construction).
        Returns flushed ``(keys, values)`` in eviction order.
        """
        m = keys.size
        if m == 0:
            return _empty_pairs(self._dim_or_zero())
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

    def _mixed_bulk_insert(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        freq: int,
        slots: np.ndarray,
        resident: np.ndarray,
        E: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Exact plan for a mixed run *with* evictions, or None.

        Resident overwrites bump (freq, tick) mid-run — state the static
        pool of :func:`_greedy_evictions` cannot see.  Each resident is
        modeled exactly by moving it out of the pool and into the
        arrivals channel at its post-bump priority (freq+1, batch-order
        tick), released at the first eviction after its own bump —
        provided no resident can be evicted *before* its bump.  That
        pre-bump safety holds whenever at least ``E[j]`` strictly-cheaper
        non-run residents exist (each of the first ``E[j]`` evictions
        then still has a cheaper victim available: ``t`` evictions can
        have consumed at most ``t < E[j]`` of them, and cheaper arrivals
        only add victims).  The check is conservative; when it fails the
        caller cuts the run, which is always exact.

        A resident evicted after its bump flushes the batch's *new*
        value — the overwrite happened first in sequential order.
        """
        m = keys.size
        res_slots = slots[resident]
        n_res = int(res_slots.size)
        arrivals = ~resident
        free0 = self.capacity - self.size
        n_evict = max(0, (m - n_res) - free0)
        # Candidate pool, cheapest first, wide enough that the run's
        # residents can be excluded with n_evict candidates remaining.
        cand = self._pool_candidates(n_evict + n_res)
        in_run = np.isin(cand, res_slots, assume_unique=True)
        # Strictly-cheaper non-run candidates at each priority rank
        # (exclusive prefix count of non-run entries).
        nonrun = (~in_run).astype(np.int64)
        cheaper_at = np.cumsum(nonrun) - nonrun
        by_slot = np.argsort(cand)
        pos = cand[by_slot].searchsorted(res_slots)
        # A run resident beyond the truncated pool window is costlier
        # than all of it, hence than >= n_evict non-run slots: safe.
        cheaper = _full_i64(n_res, n_evict)
        idx = np.minimum(pos, cand.size - 1)
        found = cand[by_slot][idx] == res_slots
        cheaper[found] = cheaper_at[by_slot[idx[found]]]
        if (cheaper < E[resident]).any():
            return None
        pool = cand[~in_run][:n_evict]
        # Per-position arrival channel: fresh inserts at the seed
        # frequency, bumped residents at freq+1.  Both become eviction
        # candidates at the first eviction after their own operation —
        # with A the inclusive arrival count, max(0, A - free0) in both
        # cases (an arrival's own insert is number A-1, a resident's
        # bump precedes insert A).
        d_freq = _full_i64(m, freq)
        d_freq[resident] = self._freq[res_slots] + 1
        A = np.cumsum(arrivals.astype(np.int64))
        d_release = np.maximum(0, A - free0)
        pool_slot, d_slot = _greedy_evictions(
            self._freq[pool], self._tick[pool], d_freq, d_release, n_evict
        )
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
        surviving = resident & ~taken_d
        rs = slots[surviving]
        self._values[rs] = vals[surviving]
        self._freq[rs] += 1
        self._tick[rs] = ticks[surviving]
        self._remove_slots(slots[resident & taken_d])
        keep = arrivals & ~taken_d
        rows = self._alloc(int(keep.sum()))
        if rows.size:
            self._keys[rows] = keys[keep]
            self._values[rows] = vals[keep]
            self._freq[rows] = freq
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

    Access counts of LRU residents ride in a per-slot array aligned with
    the LRU slab and seed the LFU frequency on demotion, so demoted hot
    parameters keep their standing.
    """

    def __init__(
        self,
        capacity: int,
        *,
        lru_fraction: float = 0.5,
        value_dim: int = 1,
        key_domain: int | None = None,
    ) -> None:
        self.key_domain = key_domain
        if capacity < 2:
            raise ValueError("combined cache needs capacity >= 2")
        if not 0.0 < lru_fraction < 1.0:
            raise ValueError("lru_fraction must be in (0, 1)")
        lru_cap = max(1, int(capacity * lru_fraction))
        lfu_cap = max(1, capacity - lru_cap)
        self.lru = LRUCache(lru_cap, value_dim=value_dim, key_domain=key_domain)
        self.lfu = LFUCache(lfu_cap, value_dim=value_dim, key_domain=key_domain)
        self.value_dim = value_dim
        self.stats = CacheStats()
        #: access counts of LRU-tier residents, aligned with LRU slots.
        self._counts = np.zeros(lru_cap, dtype=np.int64)
        #: flush-outs produced inside :meth:`get` promotions (a getter has
        #: no return channel for them); owners must drain via
        #: :meth:`take_pending_flush` and persist to the SSD-PS.
        self._pending_flush: list = []

    def __len__(self) -> int:
        return len(self.lru) + len(self.lfu)

    @property
    def capacity(self) -> int:
        return self.lru.capacity + self.lfu.capacity

    # ------------------------------------------------------------------
    def _demote_evicted(
        self, ekeys: np.ndarray, evals: np.ndarray, eslots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Push LRU evictions into the LFU; returns LFU flush-outs.

        ``eslots`` carries each eviction's former LRU slot so its access
        count can seed the LFU frequency; -1 means the key never occupied
        a row this batch (evicted straight from the insert stream) and
        seeds with its fresh count of 1.
        """
        freqs = np.where(eslots >= 0, self._counts[eslots], 1)
        return self.lfu.bulk_insert(ekeys, evals, freqs)

    def get(self, key: int) -> np.ndarray | None:
        """Single-key lookup (batch paths should use :meth:`get_batch`)."""
        key = int(key)
        slot = self.lru._index.get1(key)
        if slot >= 0:
            self.stats.hits += 1
            self._counts[slot] += 1
            self.lru._now += 1
            self.lru._tick[slot] = self.lru._now
            return self.lru._values[slot].copy()
        freq = self.lfu.frequency(key)
        val = self.lfu.pop(key)
        if val is not None:
            # Promote back to the recent tier, demoting as needed.  The
            # demotion can flush LFU entries; park them for the owner to
            # persist — dropping them would lose trained parameters.
            self.stats.hits += 1
            self._pending_flush.extend(self._put_single(key, val, freq + 1, False))
            return val
        self.stats.misses += 1
        return None

    def _put_single(
        self, key: int, value: np.ndarray, count: int, pin: bool
    ) -> list:
        """Seed-exact single insert into the LRU with demotion cascade."""
        lru = self.lru
        v = lru._coerce_value(value)
        slot = lru._index.get1(key)
        if slot >= 0:
            lru._values[slot] = v
            lru._now += 1
            lru._tick[slot] = lru._now
            if pin:
                lru._pinned[slot] = True
            self._counts[slot] = count
            return []
        demote = None
        if lru.size >= lru.capacity:
            vslot = lru._oldest_unpinned_slot()
            if vslot < 0:
                if pin:
                    raise RuntimeError(_PINNED_MSG)
                # Seed scan evicts the fresh key itself; it still passes
                # through the LFU with its fresh access count.
                return self.lfu.put(key, v, freq=count)
            demote = (
                int(lru._keys[vslot]),
                lru._values[vslot].copy(),
                int(self._counts[vslot]),
            )
            lru._remove_slot(vslot)
        slot = lru._insert_slot(key, v, pin)
        self._counts[slot] = count
        if demote is None:
            return []
        return self.lfu.put(demote[0], demote[1], freq=demote[2])

    def put(self, key: int, value: np.ndarray, *, pin: bool = False) -> list:
        """Insert a value; returns ``(key, value)`` pairs to flush to SSD."""
        key = int(key)
        freq = self.lfu.frequency(key)
        if freq:
            self.lfu.pop(key)
            count = freq + 1
        else:
            slot = self.lru._index.get1(key)
            count = (int(self._counts[slot]) if slot >= 0 else 0) + 1
        return self._put_single(key, value, count, pin)

    # ------------------------------------------------------------------
    def get_batch(
        self, keys: np.ndarray, *, assume_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized batch lookup, sequential-equivalent to :meth:`get`.

        Returns ``(values, hit_mask)``; missed rows are zero-filled.
        The batch is applied as an admission plan: promotion storms that
        would push an LRU-resident batch key into the eviction frontier
        cut the batch into runs; the colliding position itself is
        applied with the exact scalar :meth:`get`.
        """
        keys = as_keys(keys)
        values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        hit = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return values, hit
        lru, lfu = self.lru, self.lfu
        prev_dup = None if assume_unique else _prev_occurrence(keys)
        hashes = _batch_hashes(keys, lru._index, lfu._index)
        s, n = 0, keys.size
        while s < n:
            bound = _dup_bound(prev_dup, s, n)
            rem = keys[s:bound]
            h = None if hashes is None else hashes[s:bound]
            lru_slots, in_lru, lru_hints = lru._index.locate(rem, h)
            lfu_slots, in_lfu = lfu._index.get(rem, h)
            run, order = lru._admission_run_length(
                inserts=in_lfu,
                res_slots=np.where(in_lru, lru_slots, -1),
                blocked=None,
                allow_spill=False,
            )
            if run == 0:
                self.stats.collision_splits += 1
                v = self.get(int(keys[s]))
                if v is not None:
                    values[s] = v
                    hit[s] = True
                s += 1
                continue
            e = s + run
            self._get_run(
                rem[:run],
                values[s:e],
                hit[s:e],
                lru_slots[:run],
                in_lru[:run],
                lfu_slots[:run],
                in_lfu[:run],
                lru_hints[:run],
                None if h is None else h[:run],
                order,
            )
            self.stats.admission_runs += 1
            s = e
        return values, hit

    def _get_run(
        self, keys, values, hit, lru_slots, in_lru, lfu_slots, in_lfu,
        lru_hints, hashes, order=None, out_rows=None,
    ) -> None:
        """Apply one collision-free lookup run (dense slab ops only).

        ``values``/``hit`` are views into the caller's output arrays;
        ``order`` is the eviction-order array the admission planner
        already materialized (reused, not rescanned).  ``out_rows``, when
        given, receives each hit position's final LRU slab row (resident
        slot or freshly installed promotion row; misses stay -1) so the
        prefetch path can pin without re-probing the index.
        """
        lru, lfu = self.lru, self.lfu
        overflow = max(0, lru.size + int(in_lfu.sum()) - lru.capacity)
        old_sel = (
            lru._select_evictions(overflow, order)
            if overflow
            else np.empty(0, dtype=np.int64)
        )
        hit_run = in_lru | in_lfu
        hit[...] = hit_run
        self.stats.hits += int(hit_run.sum())
        self.stats.misses += int((~hit_run).sum())
        values[in_lru] = lru._values[lru_slots[in_lru]]
        values[in_lfu] = lfu._values[lfu_slots[in_lfu]]
        # Every hit consumes one recency tick, in batch order.
        ticks = lru._ticks(int(hit_run.sum()))
        tick_of = np.empty(keys.size, dtype=np.int64)
        tick_of[hit_run] = ticks
        res = lru_slots[in_lru]
        lru._tick[res] = tick_of[in_lru]
        self._counts[res] += 1
        if out_rows is not None:
            out_rows[in_lru] = res
        if in_lfu.any():
            promoted_counts = lfu._freq[lfu_slots[in_lfu]] + 1
            lfu._remove_slots(lfu_slots[in_lfu])
            if old_sel.size:
                ekeys = lru._keys[old_sel].copy()
                evals = lru._values[old_sel].copy()
                efreqs = self._counts[old_sel].copy()
                lru._remove_slots(old_sel)
            rows = lru._alloc(int(in_lfu.sum()))
            lru._keys[rows] = keys[in_lfu]
            lru._values[rows] = values[in_lfu]
            lru._tick[rows] = tick_of[in_lfu]
            lru._pinned[rows] = False
            lru._index.install(
                keys[in_lfu],
                rows,
                lru_hints[in_lfu],
                None if hashes is None else hashes[in_lfu],
            )
            self._counts[rows] = promoted_counts
            if out_rows is not None:
                out_rows[in_lfu] = rows
            if old_sel.size:
                # Every promotion freed an LFU row before any demotion
                # needed one, so the demotions can never flush.
                fk, _ = self.lfu.bulk_insert(ekeys, evals, efreqs)
                assert fk.size == 0

    def put_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        pin: bool = False,
        assume_unique: bool = False,
        assume_absent: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Insert many values; returns (flush_keys, flush_values).

        ``assume_absent`` (implies ``assume_unique``) promises every key
        is resident in neither tier — the prefetch miss stream is by
        construction — and skips the LFU membership probe.

        Sequential-equivalent to per-key :meth:`put` calls in batch
        order.  Interleavings a single dense plan cannot reproduce
        (duplicate keys, LFU-resident batch keys while the LRU overflows,
        batch keys inside the eviction frontier) cut the batch into
        admission runs; the colliding position is applied with the exact
        scalar :meth:`put` and the frontier recomputed for the next run.
        """
        keys = as_keys(keys)
        vals = np.asarray(values, dtype=np.float32)
        if vals.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if keys.size == 0:
            return _empty_pairs(self.value_dim)
        lru, lfu = self.lru, self.lfu
        if assume_absent:
            assume_unique = True
        prev_dup = None if assume_unique else _prev_occurrence(keys)
        hashes = _batch_hashes(keys, lru._index, lfu._index)
        fk_parts: list[np.ndarray] = []
        fv_parts: list[np.ndarray] = []
        s, n = 0, keys.size
        while s < n:
            bound = _dup_bound(prev_dup, s, n)
            rem = keys[s:bound]
            h = None if hashes is None else hashes[s:bound]
            if assume_absent:
                lfu_slots = _full_i64(rem.size, -1)
                in_lfu = np.zeros(rem.size, dtype=bool)
            else:
                lfu_slots, in_lfu = lfu._index.get(rem, h)
            lru_rows, lru_res, lru_hints = lru._index.locate(rem, h)
            run, order = lru._admission_run_length(
                inserts=~lru_res,
                res_slots=np.where(lru_res, lru_rows, -1),
                blocked=in_lfu,
                allow_spill=True,
            )
            if run == 0:
                self.stats.collision_splits += 1
                flushed = self.put(int(keys[s]), vals[s], pin=pin)
                if flushed:
                    pk, pv = _as_pairs(flushed, self.value_dim)
                    fk_parts.append(pk)
                    fv_parts.append(pv)
                s += 1
                continue
            e = s + run
            fk, fv = self._put_run(
                rem[:run],
                vals[s:e],
                pin,
                lfu_slots[:run],
                in_lfu[:run],
                (lru_rows[:run], lru_res[:run]),
                lru_hints[:run],
                None if h is None else h[:run],
                order,
            )
            if fk.size:
                fk_parts.append(fk)
                fv_parts.append(fv)
            self.stats.admission_runs += 1
            s = e
        if not fk_parts:
            return _empty_pairs(self.value_dim)
        return (
            np.concatenate(fk_parts).astype(KEY_DTYPE),
            np.concatenate(fv_parts, axis=0),
        )

    def _put_run(
        self,
        keys,
        vals,
        pin,
        lfu_slots,
        in_lfu,
        located,
        lru_hints,
        hashes,
        order=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply one collision-free insert run; returns its flush pairs."""
        lru, lfu = self.lru, self.lfu
        plan = lru._plan_put(keys, vals, pin, located, order)
        assert plan is not None  # guaranteed by the run conditions
        _, _, _, lru_slots, resident, old_sel, _ = plan
        # Access counts, exactly as the per-key loop would assign them.
        counts = np.ones(keys.size, dtype=np.int64)
        counts[resident] += self._counts[lru_slots[resident]]
        counts[in_lfu] = lfu._freq[lfu_slots[in_lfu]] + 1
        lfu._remove_slots(lfu_slots[in_lfu])
        # Demotion frequency seeds, read before eviction recycles rows.
        old_freqs = self._counts[old_sel].copy()
        ekeys, evals, spill, new_idx, new_rows = lru._apply_put(
            plan, hashes, lru_hints
        )
        survived = resident.copy()
        survived[spill] = False
        self._counts[lru_slots[survived]] = counts[survived]
        self._counts[new_rows] = counts[new_idx]
        # Spilled batch keys carry the count their own put assigned.
        freqs = np.concatenate([old_freqs, counts[spill]])
        return self.lfu.bulk_insert(ekeys, evals, freqs)

    def take_pending_flush(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain flush-outs produced by :meth:`get` promotions."""
        out = _as_pairs(self._pending_flush, self.value_dim)
        self._pending_flush.clear()
        return out

    # ------------------------------------------------------------------
    def settle_overflow(self) -> tuple[np.ndarray, np.ndarray]:
        """Evict LRU overflow (after unpinning) through the demotion
        cascade; returns ``(flush_keys, flush_values)`` for the SSD.

        This is the public face of the end-of-batch settling the MEM-PS
        runs — callers never touch the tiers directly.
        """
        overflow = self.lru.size - self.lru.capacity
        if overflow <= 0:
            return _empty_pairs(self.value_dim)
        slots = self.lru._select_evictions(overflow)
        if slots.size < overflow:
            raise RuntimeError(_PINNED_MSG)
        ekeys = self.lru._keys[slots].copy()
        evals = self.lru._values[slots].copy()
        efreqs = self._counts[slots].copy()
        self.lru._remove_slots(slots)
        return self.lfu.bulk_insert(ekeys, evals, efreqs)

    def pin_batch(self, keys: np.ndarray) -> None:
        """Pin resident keys (raises ``KeyError`` on absent ones)."""
        self.lru.pin_batch(keys)

    def residency(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Non-mutating tier probe: ``(in_lru, in_lfu)`` masks.

        A pure index lookup — no recency ticks, no hit/miss statistics,
        no admission work.
        """
        keys = as_keys(keys)
        _, in_lru = self.lru._index.get(keys)
        _, in_lfu = self.lfu._index.get(keys)
        return in_lru, in_lfu

    def prefetch_resolve(
        self,
        keys: np.ndarray,
        prev_keys: np.ndarray | None = None,
        prev_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Tier-ordered one-pass resolve of a sorted-unique prefetch union.

        Sequential-equivalent to replaying :meth:`get` over the union
        ordered [LRU hits, LFU promotions, misses] — the access order the
        prefetch stage commits to.  Each index is probed exactly once:

        * the LRU segment is pure recency ticks on the already-located
          slots (no insert can form, so no admission work);
        * the LFU segment reuses the same probe state (still valid — the
          tick segment mutates no index) and runs the admission engine;
        * the miss segment only counts (lookups never insert).

        Returns ``(hit, rows)`` in input order; ``rows[i]`` is the LRU
        slab row of every resolved position (-1 for misses, installed
        later by ``put_batch``).  Returns ``(hit, None)`` — caller must
        re-resolve through the index — if a promotion storm cuts the
        LFU segment.

        ``prev_keys``/``prev_rows`` (the previous round's resolved union)
        let consecutive unions share their overlap: a key still sitting
        in its old slab row — verified directly against the slab, the
        source of truth the index mirrors — needs no probe at all, so
        only the cross-round *delta* pays SlotIndex traffic.
        """
        keys = as_keys(keys)
        n = keys.size
        hit = np.zeros(n, dtype=bool)
        if n == 0:
            return hit, np.empty(0, dtype=np.int64)
        lru, lfu = self.lru, self.lfu
        carried = np.zeros(n, dtype=bool)
        carried_rows = np.empty(0, dtype=np.int64)
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
        tier = np.where(in_lru, 0, np.where(in_lfu, 1, 2))
        order = np.argsort(tier, kind="stable")
        n0 = int(in_lru.sum())
        n1 = int(in_lfu.sum())
        n2 = n - n0 - n1
        hit[in_lru] = True
        hit[in_lfu] = True
        rows = _full_i64(n, -1)
        # -- segment 1: LRU hits — ticks on known slots ----------------
        if n0:
            res = lru_slots[in_lru]
            lru._tick[res] = lru._ticks(n0)
            self._counts[res] += 1
            rows[in_lru] = res
            self.stats.hits += n0
            self.stats.admission_runs += 1
        # -- segment 2: LFU promotions — admission engine, probes reused
        if n1:
            run, evict_order = lru._admission_run_length(
                inserts=in_lfu[in_lfu],
                res_slots=_full_i64(n1, -1),
                blocked=None,
                allow_spill=False,
            )
            if run < n1:
                # A promotion storm cut the segment (impossible for a
                # sorted-unique union whose LRU segment went first, but
                # the engine — not this fast path — is the authority).
                # Continue the identical ordered sequence through
                # get_batch; the caller re-resolves rows by probe.
                _, ordered_hit = self.get_batch(
                    keys[order][n0:], assume_unique=True
                )
                hit[order[n0:]] = ordered_hit
                return hit, None
            scratch_v = np.empty((n1, self.value_dim), dtype=np.float32)
            scratch_h = np.empty(n1, dtype=bool)
            seg_rows = _full_i64(n1, -1)
            self._get_run(
                keys[in_lfu],
                scratch_v,
                scratch_h,
                lru_slots[in_lfu],
                in_lru[in_lfu],
                lfu_slots[in_lfu],
                in_lfu[in_lfu],
                lru_hints[in_lfu],
                None if hashes is None else hashes[in_lfu],
                evict_order,
                out_rows=seg_rows,
            )
            rows[in_lfu] = seg_rows
            self.stats.admission_runs += 1
        # -- segment 3: misses — lookups never insert ------------------
        if n2:
            self.stats.misses += n2
            self.stats.admission_runs += 1
        return hit, rows

    def pin_rows(self, rows: np.ndarray) -> None:
        """Pin known-resident LRU slab rows.

        The probe-free twin of :meth:`pin_batch` for callers whose row
        identities came from the same call that resolved them
        (:meth:`prefetch_resolve`).
        """
        self.lru._pinned[rows] = True

    def unpin_batch(self, keys: np.ndarray) -> None:
        self.lru.unpin_batch(keys)

    # -- resolved-slot fast path (BatchPlan) ----------------------------
    # A pinned key's LRU slab row is stable until it is unpinned: pinned
    # rows are never eviction victims and in-place overwrites reuse the
    # row.  Callers that pin a working set may therefore resolve rows once
    # and update/unpin through them without further SlotIndex probes.
    def resolve_pinned(self, keys: np.ndarray) -> np.ndarray:
        """LRU slab rows of ``keys``; all must be pinned residents."""
        keys = as_keys(keys)
        slots, found = self.lru._index.get(keys)
        if not bool(np.all(found)) or not bool(
            np.all(self.lru._pinned[slots])
        ):
            raise RuntimeError(
                "resolve_pinned requires every key to be a pinned LRU "
                "resident (the in-flight working set)"
            )
        return slots

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite values at resolved LRU rows (no metadata changes).

        For keys whose rows were resolved by :meth:`resolve_pinned`
        while pinned.
        """
        self.lru._values[rows] = np.asarray(values, dtype=np.float32)

    def values_at(self, rows: np.ndarray) -> np.ndarray:
        """Read values at resolved LRU rows (no metadata changes).

        Row-level face of :meth:`get_batch` for keys pinned and resolved
        by :meth:`resolve_pinned` — a pure slab gather, touching neither
        recency nor hit/miss statistics.
        """
        return self.lru._values[rows]

    def unpin_rows(self, rows: np.ndarray) -> None:
        """Release pins at resolved LRU rows (see :meth:`resolve_pinned`)."""
        self.lru._pinned[rows] = False

    def touch_rows(self, rows: np.ndarray) -> None:
        """Account an LRU access at already-resolved pinned rows.

        The consume path of the depth-k prefetch window: the rows were
        located (and pinned) by an earlier round's
        :meth:`prefetch_resolve`, so serving them this round is recency
        ticks + access counts + hit statistics on known slots — exactly
        segment 1 of the resolve, with zero index traffic (no admission
        work can arise on pinned residents).
        """
        n = rows.size
        if not n:
            return
        self.lru._tick[rows] = self.lru._ticks(n)
        self._counts[rows] += 1
        self.stats.hits += n

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

    def update_if_present(self, key: int, value: np.ndarray) -> bool:
        """Overwrite a resident value without changing recency/frequency."""
        key = int(key)
        slot = self.lru._index.get1(key)
        if slot >= 0:
            self.lru._values[slot] = np.asarray(value, dtype=np.float32)
            return True
        slot = self.lfu._index.get1(key)
        if slot >= 0:
            self.lfu._values[slot] = np.asarray(value, dtype=np.float32)
            return True
        return False

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

    def contains(self, keys) -> np.ndarray | bool:
        """Residency of a key (bool) or key array (mask), metadata-neutral."""
        if np.isscalar(keys) or isinstance(keys, (int, np.integer)):
            return int(keys) in self.lru or int(keys) in self.lfu
        keys = as_keys(keys)
        _, in_lru = self.lru._index.get(keys)
        _, in_lfu = self.lfu._index.get(keys)
        return in_lru | in_lfu

    def transform(self, keys: np.ndarray, fn) -> None:
        """Apply ``new = fn(old)`` to resident keys across both tiers."""
        keys = as_keys(keys)
        if keys.size == 0:
            return
        _, in_lru = self.lru._index.get(keys)
        self.lru.transform(keys[in_lru], fn)
        self.lfu.transform(keys[~in_lru], fn)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident ``(keys, values)`` across tiers, sorted by key."""
        lk, lv = self.lru.items()
        fk, fv = self.lfu.items()
        keys = np.concatenate([lk, fk])
        values = np.concatenate([lv, fv], axis=0)
        order = np.argsort(keys)
        return keys[order], values[order]

    def pinned_count(self) -> int:
        return self.lru.pinned_count()

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
        entries and parked promotion flush-outs belong to an in-flight
        batch and have no on-disk meaning.
        """
        if self.lru.pinned_count():
            raise RuntimeError(
                "cannot snapshot a cache with pinned entries — finish the "
                "in-flight batch first"
            )
        if self._pending_flush:
            raise RuntimeError(
                "cannot snapshot a cache with undrained pending flush-outs"
            )
        lru_rows, lru_keys = self.lru._items_in_order(self.lru._tick)
        lfu_rows, lfu_keys = self.lfu._items_in_order(self.lfu._tick)
        return {
            "lru_keys": lru_keys.astype(KEY_DTYPE),
            "lru_values": self.lru._values[lru_rows].copy(),
            "lru_counts": self._counts[lru_rows].copy(),
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
        self.lru = LRUCache(self.lru.capacity, value_dim=self.value_dim, key_domain=self.key_domain)
        self.lfu = LFUCache(self.lfu.capacity, value_dim=self.value_dim, key_domain=self.key_domain)
        self._counts = np.zeros(self.lru.capacity, dtype=np.int64)
        self._pending_flush = []
        # Oldest-first re-insertion assigns fresh ascending ticks, which
        # preserves every relative recency comparison the policy makes.
        if lfu_keys.size:
            flushed = self.lfu.bulk_insert(
                lfu_keys,
                lfu_values,
                np.asarray(state["lfu_freqs"], dtype=np.int64),
            )
            assert flushed[0].size == 0  # fits by the capacity check above
        if lru_keys.size:
            flush_k, _ = self.lru.put_batch(lru_keys, lru_values)
            assert flush_k.size == 0
            slots, found = self.lru._index.get(lru_keys)
            assert bool(np.all(found))
            self._counts[slots] = np.asarray(state["lru_counts"], dtype=np.int64)
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
        if self.lru.pinned_count():
            raise RuntimeError(
                "cannot snapshot a cache with pinned entries — finish the "
                "in-flight batch first"
            )
        if self._pending_flush:
            raise RuntimeError(
                "cannot snapshot a cache with undrained pending flush-outs"
            )
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
            "lru_counts": self._counts[lru_rows].copy(),
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
        if keys.size == 0:
            values = np.zeros((0, self.value_dim), dtype=np.float32)
        else:
            values = np.concatenate(
                [self.lru._values[lru_rows], self.lfu._values[lfu_rows]],
                axis=0,
            ).copy()
        self.lru = LRUCache(self.lru.capacity, value_dim=self.value_dim, key_domain=self.key_domain)
        self.lfu = LFUCache(self.lfu.capacity, value_dim=self.value_dim, key_domain=self.key_domain)
        self._counts = np.zeros(self.lru.capacity, dtype=np.int64)
        return keys, values
