"""File-level parameter storage (paper Section 6, Appendix E).

Parameters are materialized in immutable *parameter files*; an in-memory
mapping locates them.  Updates never touch old files — updated values are
chunked into **new** files (sequential writes), the mapping is repointed,
and superseded rows become *stale*.  A per-file stale counter (maintained
exactly as the paper describes: bumped when the mapping is repointed away)
lets the compactor pick merge victims without reading file contents.

The I/O unit is the file and every *cost* is charged per file, but the
bookkeeping is addressed by row.  The mapping sends a key to a **row
locator** ``slot * file_capacity + row``: ``slot`` is a small integer
naming a live file (recycled on erase; per-slot arrays hold its file id,
first row, row count and stale counter), ``row`` the key's position in
it.  Every file's keys and payload rows sit packed in one arena per
store, so a read is one index probe, one array pass over the touched
files that only *accounts* (fault arm, device charge; in ascending
file-id order, which is part of the simulated-clock contract because
float seconds accumulate in it) and one gather.  Every touched file is
a device read: there is no host-side file cache between the MEM tier
and the array.  What leaves the store (checkpoints) speaks file ids and
ships live rows only: per file its id, row count and stale counter, one
packed live mask, and the set bits' keys and values.  A restore writes key 0 and zeros at the stale
rows, which nothing reads, and the row count still prices the whole
file.  Nothing removes a key, so each live key ships exactly once and
a load derives the mapping from the shipped rows.

Payloads live in memory, in the arena; timing comes from the
:class:`SSDDevice` model alone, so the simulated clock never depends on
where the bytes sit.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.errors import TierStateError
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.hardware.ssd_device import SSDDevice
from repro.store.slot_index import SlotIndex
from repro.utils.keys import KEY_DTYPE, as_keys, check_key_cap
from repro.utils.rows import put_rows, take_rows

__all__ = ["FileStore", "ParameterFile", "ReadResult"]

#: A fresh arena's capacity over the rows it must hold.  The spare rows are
#: address space only — never touched until an append claims them — and
#: with 4x a store compacting at the default 2x usage threshold appends
#: from one reclaim to the next without outgrowing its arena.
_HEADROOM = 4

#: :meth:`FileStore.reclaim` repacks once erased files hold more than this
#: fraction of the arena, so compaction's garbage is returned, not kept.
_REPACK_FRACTION = 0.25


@dataclass(frozen=True)
class ParameterFile:
    """Description of one immutable on-SSD parameter file.

    A record built on demand from the store's slot table
    (:meth:`FileStore.file`); the store keeps no per-file objects.
    """

    file_id: int
    #: the file's keys by row (a copy): sorted and unique as written; a
    #: restored file holds key 0 at its stale rows
    keys: np.ndarray
    stale_count: int = 0

    @property
    def n_live(self) -> int:
        return self.keys.size - self.stale_count

    def stale_fraction(self) -> float:
        return self.stale_count / self.keys.size if self.keys.size else 1.0


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a batched read: ``files_read``/``bytes_read`` count
    the whole files charged to the device."""

    values: np.ndarray
    found: np.ndarray
    seconds: float
    files_read: int
    bytes_read: int


class FileStore:
    """Append-only parameter-file store with a key→row-locator mapping."""

    def __init__(
        self,
        value_dim: int,
        file_capacity: int,
        *,
        ssd_spec: SSDSpec | None = None,
        directory: str | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        # ``directory`` is ignored (payloads live in the arena) and
        # ``ssd_spec`` / ``ledger`` default, for ``benchmarks/hps/micro.py``
        # (``FileStore(VALUE_DIM, 256)``); drop all three at benchmark v2.
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        if file_capacity <= 0:
            raise ValueError("file_capacity must be positive")
        self.value_dim = value_dim
        self.file_capacity = file_capacity
        #: on-SSD bytes of one parameter row (uint64 key + float32 values)
        self.row_bytes = 8 + 4 * value_dim
        self.ledger = ledger if ledger is not None else CostLedger()
        self.device = SSDDevice(ssd_spec or SSDSpec(), self.ledger)
        #: fault-injection guard for file reads
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None
        #: vectorized key -> row locator (``slot * file_capacity + row``)
        self._mapping = SlotIndex()
        self._reset_files()
        self._next_file_id = 0
        #: the delta base (:meth:`mark_snapshot`): ``(next file id, live
        #: file ids, their stale counters)`` as of the last committed
        #: snapshot; None until one is marked, and again after a load
        self._mark: tuple[int, np.ndarray, np.ndarray] | None = None

    def _reset_files(self) -> None:
        """Empty slot table and arenas (construction; full-state load)."""
        #: file id -> slot of every live file
        self._slot_of: dict[int, int] = {}
        #: the slot table: file id (-1 = free slot), first arena row, row
        #: count and stale counter of the file in each slot
        self._slot_fid = np.full(16, -1, dtype=np.int64)
        self._slot_base = np.zeros(16, dtype=np.int64)
        self._slot_rows = np.zeros(16, dtype=np.int64)
        self._slot_stale = np.zeros(16, dtype=np.int64)
        self._n_slots = 0  # slots ever handed out (table high-water mark)
        #: read()'s touched-slot scratch (all False between calls)
        self._touched = np.zeros(16, dtype=bool)
        #: the arenas: every live file's keys and payload rows at ``base
        #: .. base + rows``.  Rows of erased files are garbage until the
        #: next repack.  Nothing may keep a view: it would pin a
        #: superseded arena after growth.
        self._arena_keys = np.empty(0, dtype=KEY_DTYPE)
        self._arena = np.empty((0, self.value_dim), dtype=np.float32)
        self._arena_used = 0  # rows handed out (the append point)
        self._arena_live = 0  # rows of live files
        #: disk footprint, maintained on append and erase — the compactor
        #: polls ``total_bytes`` on every dump
        self._total_bytes = 0

    # ------------------------------------------------------------------
    @property
    def n_files(self) -> int:
        return len(self._slot_of)

    @property
    def n_live_params(self) -> int:
        return len(self._mapping)

    @property
    def total_bytes(self) -> int:
        """Disk footprint including stale rows (maintained incrementally)."""
        return self._total_bytes

    @property
    def live_bytes(self) -> int:
        return self.n_live_params * self.row_bytes

    def file(self, file_id: int) -> ParameterFile:
        """The record of live file ``file_id`` (KeyError if erased)."""
        slot = self._slot_of[file_id]
        base = int(self._slot_base[slot])
        return ParameterFile(
            file_id,
            self._arena_keys[base : base + int(self._slot_rows[slot])].copy(),
            int(self._slot_stale[slot]),
        )

    def files(self) -> list[ParameterFile]:
        """Every live file's record, in ascending file-id order."""
        return [self.file(fid) for fid in sorted(self._slot_of)]

    @property
    def extent_cache(self) -> SimpleNamespace:
        """Frozen-only: ``benchmarks/hps/onepass.py`` reads its ``stats()``;
        there is no file cache.  Drop at benchmark v2."""
        return SimpleNamespace(stats=lambda: {"hits": 0, "misses": 0})

    def file_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(file ids, row counts, stale counters)`` of the live files,
        in ascending file-id order."""
        slots = self._live_slots()
        return self._slot_fid[slots], self._slot_rows[slots], self._slot_stale[slots]

    # ------------------------------------------------------------------
    # Slot table and arenas
    # ------------------------------------------------------------------
    def _live_slots(self, min_file_id: int = 0) -> np.ndarray:
        """Slots of the live files with id >= ``min_file_id``, by file id."""
        fids = self._slot_fid[: self._n_slots]
        slots = np.flatnonzero(fids >= min_file_id)
        return slots[fids[slots].argsort()]

    def _take_slots(self, k: int) -> np.ndarray:
        """``k`` free slots: recycled ones first, then fresh ones."""
        free = np.flatnonzero(self._slot_fid[: self._n_slots] < 0)[:k]
        need = self._n_slots + k - free.size
        if need > self._slot_fid.size:
            pad = np.zeros(max(need, 2 * self._slot_fid.size) - self._slot_fid.size, np.int64)
            self._slot_fid = np.concatenate((self._slot_fid, pad - 1))
            self._slot_base = np.concatenate((self._slot_base, pad))
            self._slot_rows = np.concatenate((self._slot_rows, pad))
            self._slot_stale = np.concatenate((self._slot_stale, pad))
            self._touched = np.zeros(self._slot_fid.size, dtype=bool)
        slots = np.concatenate((free, np.arange(self._n_slots, need, dtype=np.int64)))
        self._n_slots = need
        return slots

    def _rows_of(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slot, row, arena row)`` of every row of the files in
        ``slots``, file by file in the given order."""
        rows = self._slot_rows[slots]
        starts = np.cumsum(rows) - rows
        within = np.arange(int(rows.sum()), dtype=np.int64) - np.repeat(starts, rows)
        return np.repeat(slots, rows), within, np.repeat(self._slot_base[slots], rows) + within

    def _reserve(self, n: int) -> int:
        """Make room for ``n`` more rows at the arenas' tail (growing at
        most once); returns their first row."""
        base = self._arena_used
        need = base + n
        if need > self._arena_keys.shape[0]:
            self._rehouse(_HEADROOM * need, slice(0, base))
        self._arena_used = need
        self._arena_live += n
        return base

    def reclaim(self) -> None:
        """Repack the arenas if erased files hold more than a fixed
        fraction of them: the live files move, packed, into fresh arenas
        and the old ones — erased rows and touched tail included — go
        back to the OS.  Whoever erases a batch of files (the compactor)
        calls this once, after the batch."""
        if self._arena_used - self._arena_live <= _REPACK_FRACTION * self._arena_used:
            return
        slots = self._live_slots()
        src = self._rows_of(slots)[2]
        rows = self._slot_rows[slots]
        self._slot_base[slots] = np.cumsum(rows) - rows
        self._rehouse(_HEADROOM * src.size, src)
        self._arena_used = self._arena_live = int(src.size)

    def _rehouse(self, capacity: int, src) -> None:
        """Fresh ``capacity``-row arenas headed by the old ones' rows ``src``."""
        self._arena_keys = _moved(self._arena_keys, capacity, src)
        self._arena = _moved(self._arena, capacity, src)

    def _append_files(
        self,
        file_ids: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        stale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Register new files packed as ``offsets`` into ``keys`` /
        ``values``; returns their slots."""
        n = keys.shape[0]
        base = self._reserve(n)
        self._arena_keys[base : base + n] = keys
        self._arena[base : base + n] = values
        slots = self._take_slots(file_ids.size)
        self._slot_fid[slots] = file_ids
        self._slot_base[slots] = base + offsets[:-1]
        self._slot_rows[slots] = np.diff(offsets)
        self._slot_stale[slots] = 0 if stale is None else stale
        self._slot_of.update(zip(file_ids.tolist(), slots.tolist()))
        self._total_bytes += n * self.row_bytes
        return slots

    # ------------------------------------------------------------------
    # Payload access (never charged)
    # ------------------------------------------------------------------
    def _payload(self, file_id: int) -> np.ndarray:
        """Payload rows of one file, aligned with its keys: a transient
        arena view — use it, don't keep it."""
        slot = self._slot_of[file_id]
        base = int(self._slot_base[slot])
        return self._arena[base : base + int(self._slot_rows[slot])]

    def _store_payload(self, file_id: int, values: np.ndarray) -> None:
        """Overwrite a registered file's payload rows in the arena (the
        fault arm's quarantine re-materializes a file this way)."""
        self._payload(file_id)[:] = values

    def _gather(self, slots: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Payload rows at ``(slot, row)`` pairs: one arena gather."""
        return take_rows(self._arena, self._slot_base[slots] + rows)

    # ------------------------------------------------------------------
    def write(self, keys: np.ndarray, values: np.ndarray) -> tuple[float, list[int]]:
        """Chunk (keys, values) into new files; returns (seconds, file ids).

        Keys must be unique.  Previously mapped keys leave a stale row
        behind in their old file (with its counter bumped); the mapping is
        repointed to the new file.  Writes are sequential, as in the paper.
        """
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        n = keys.size
        if n == 0:
            return 0.0, []
        order = keys.argsort()
        keys = keys[order]
        if n > 1 and bool((keys[1:] == keys[:-1]).any()):
            raise ValueError("write requires unique keys")
        check_key_cap(int(keys[-1]), "FileStore.write")
        cap = self.file_capacity
        n_new = -(-n // cap)
        offsets = np.minimum(np.arange(n_new + 1, dtype=np.int64) * cap, n)
        rows = np.diff(offsets)
        file_ids = np.arange(n_new, dtype=np.int64) + self._next_file_id
        slots = self._append_files(file_ids, offsets, keys, values.take(order, axis=0))
        self._next_file_id += n_new
        total_t = 0.0
        for nbytes in (rows * self.row_bytes).tolist():
            total_t += self.device.write(nbytes)
        # Repoint the mapping; bump the superseded files' stale counters.
        within = np.arange(n, dtype=np.int64) % cap
        old, existed = self._mapping.set(keys, np.repeat(slots, rows) * cap + within)
        if existed.any():
            self._slot_stale[: self._n_slots] += np.bincount(
                old[existed] // cap, minlength=self._n_slots
            )
        return total_t, file_ids.tolist()

    def read(self, keys: np.ndarray) -> ReadResult:
        """Load values for ``keys``, reading whole files (I/O unit = file).

        Unmapped keys come back zero-filled with ``found=False``.  Reading
        a file costs its *entire* size regardless of how many of its rows
        were requested — the I/O-amplification trade-off of Appendix E.
        Each touched file is resolved (and charged) exactly once per
        call, in ascending file-id order.  A read fault that escapes the
        arm leaves the ``ssd_read`` ledger line and the device counters as
        they were.
        """
        keys = as_keys(keys)
        locs, found = self._mapping.get(keys)
        n_found = int(np.count_nonzero(found))
        if n_found == 0:
            out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
            return ReadResult(out, found, 0.0, 0, 0)
        if n_found != keys.size:
            locs = locs[found]
        slots, rows = np.divmod(locs, self.file_capacity)
        touched = self._touched
        touched[slots] = True
        hit_slots = np.flatnonzero(touched[: self._n_slots])
        touched[hit_slots] = False
        fids = self._slot_fid[hit_slots]
        by_fid = fids.argsort()
        hit_slots, fids = hit_slots[by_fid], fids[by_fid]

        # The accounting pass, as arrays: the fault arm's guard on every
        # touched file, then one device charge.  Per file, the seconds
        # step is [guard, read].
        sizes = self._slot_rows[hit_slots] * self.row_bytes
        steps = np.zeros((fids.size, 2))
        if self.faults is not None:
            # Armed reads: transient errors / torn payloads retry with
            # backoff; exhaustion quarantines the file (from the newest
            # checkpoint chain) or raises PayloadLostError — before
            # anything is charged.  The extra seconds land on the
            # ledger's fault_retry line inside the arm.
            steps[:, 0] = self.faults.ssd_reads(self, fids, sizes)
        steps[:, 1] = self.device.read_files(sizes)
        total_t = float(np.cumsum(steps)[-1])

        out = self._gather(slots, rows)
        if n_found != keys.size:
            values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
            put_rows(values, np.flatnonzero(found), out)
            out = values
        return ReadResult(out, found, total_t, fids.size, int(sizes.sum()))

    # ------------------------------------------------------------------
    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, values)``, sorted by key (no I/O charged)."""
        keys, locs = self._mapping.items()
        slots, rows = np.divmod(locs, self.file_capacity)
        return keys, self._gather(slots, rows)

    def _live(self, slots: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(live, key, slot, row)`` of every row of the files in
        ``slots``, file by file: ``live`` says whether the mapping still
        points at the row."""
        owner, within, at = self._rows_of(slots)
        keys = self._arena_keys[at]
        locs, _ = self._mapping.get(keys)
        return locs == owner * self.file_capacity + within, keys, owner, within

    def live_mask(self, file_id: int) -> np.ndarray:
        """Which rows of live file ``file_id`` the mapping points at."""
        return self._live(np.asarray([self._slot_of[file_id]], dtype=np.int64))[0]

    def live_rows(self, file_ids) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) of the non-stale rows of the files ``file_ids``,
        file by file in the given order (no I/O charged)."""
        slots = np.asarray([self._slot_of[int(f)] for f in file_ids], dtype=np.int64)
        live, keys, owner, within = self._live(slots)
        return keys[live], self._gather(owner[live], within[live])

    def erase(self, file_id: int) -> None:
        """Remove a file (compaction has rewritten its live rows); its
        arena rows are garbage until the next :meth:`reclaim`."""
        slot = self._slot_of.pop(file_id)
        rows = int(self._slot_rows[slot])
        self._total_bytes -= rows * self.row_bytes
        self._arena_live -= rows
        self._slot_fid[slot] = -1

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _pack_files(self, slots: np.ndarray) -> dict[str, np.ndarray]:
        """The files in ``slots`` in the snapshot layout, flat arrays for
        one shard: ids, row offsets and stale counters, one packed live
        mask over all their rows, and keys and values of the live rows."""
        offsets = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(self._slot_rows[slots], out=offsets[1:])
        live, keys, owner, within = self._live(slots)
        return {
            "file_ids": self._slot_fid[slots],
            "file_offsets": offsets,
            "file_live": np.packbits(live),
            "file_keys": keys[live],
            "file_values": self._gather(owner[live], within[live]),
            "file_stale": self._slot_stale[slots],
        }

    def export_state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of the files' live rows and counters.

        The file layout ships, not just the live rows: stale counters
        drive future compaction, so a resumed run repeats the original
        run's I/O schedule only if files and counters come back
        verbatim.  The mapping is not shipped: each live row ships once,
        so :meth:`load_state` derives it from the shipped keys.
        """
        out = self._pack_files(self._live_slots())
        out["next_file_id"] = np.int64(self._next_file_id)
        return out

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff the store against the snapshot it was last marked at.

        Files are immutable and ids monotone, so the diff is exact and
        cheap: every file with an id at or past the mark's watermark is
        new (its live rows ship in the same packed layout as the full
        export); marked files absent now were erased by compaction;
        surviving ones can only have changed their stale counter.  No
        mapping rows ship: the only operation that repoints the mapping
        is :meth:`write`, which lands keys in a new file, so the fold's
        files say where every key lives.

        A store that holds no mark — fresh, or loaded and not yet marked
        — has nothing to diff against: :class:`TierStateError`.
        """
        if self._mark is None:
            raise TierStateError(
                "SSD file store holds no snapshot mark to diff against — "
                "mark_snapshot() once a full snapshot or a restore commits"
            )
        watermark, base_fids, base_stale = self._mark
        out = {"base_next_file_id": np.int64(watermark)}
        out.update(self._pack_files(self._live_slots(watermark)))
        slots = np.asarray(
            [self._slot_of.get(fid, -1) for fid in base_fids.tolist()],
            dtype=np.int64,
        )
        survives = slots >= 0
        now_stale = self._slot_stale[slots[survives]]
        changed = now_stale != base_stale[survives]
        out["erased_ids"] = base_fids[~survives]
        out["stale_ids"] = base_fids[survives][changed]
        out["stale_counts"] = now_stale[changed]
        out["next_file_id"] = np.int64(self._next_file_id)
        return out

    def mark_snapshot(self) -> None:
        """The state as of now is a committed snapshot: remember the
        file-id watermark and the live files' ids and stale counters —
        ids, never slots, which a repack moves — for the next
        :meth:`export_delta` to diff against.  Called after the
        manifest commits or a restore finishes loading, never by an
        export."""
        slots = self._live_slots()
        self._mark = (
            self._next_file_id,
            self._slot_fid[slots],
            self._slot_stale[slots],
        )

    def fold_delta(
        self, base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The :meth:`export_state` snapshot an :meth:`export_delta` diff
        describes, built on ``base`` — the snapshot it was diffed against.

        Pure: neither input nor the store is touched, and the result
        shares no memory with either.  Files are
        immutable and ids monotone, so the fold is the store's history on
        arrays: erased base files drop out, survivors take their new
        stale counters and new files append.  Nothing removes a key, so
        the newest shipped copy of a key is its live one: a base row
        whose key the delta ships again has gone stale, and its bit
        clears.  Both inputs' files are validated as a load validates a
        snapshot's, and the delta must name ``base``'s file-id watermark
        and only files ``base`` holds; :meth:`load_state` validates the
        result.
        """
        watermark = int(base["next_file_id"])
        if int(delta["base_next_file_id"]) != watermark:
            raise ValueError(
                f"delta was diffed against next_file_id="
                f"{int(delta['base_next_file_id'])}, base is at {watermark}"
            )
        dim = self.value_dim
        fids, offsets, live, keys, values, stale = _unpack(delta, "delta", dim)
        if fids.size and int(fids.min()) < watermark:
            raise ValueError("file-store delta contains pre-base file ids")
        base_fids, base_offsets, base_live, base_keys, base_values, base_stale = (
            _unpack(base, "base", dim)
        )
        erased = np.asarray(delta["erased_ids"], dtype=np.int64)
        stale_ids = np.asarray(delta["stale_ids"], dtype=np.int64)
        named = np.concatenate([erased, stale_ids])
        unknown = named[~np.isin(named, base_fids)]
        if unknown.size:
            raise ValueError(
                f"file-store delta erases or re-counts unknown file {int(unknown[0])}"
            )
        keep = ~np.isin(base_fids, erased)
        base_rows = np.diff(base_offsets)
        # The base's shipped rows that stay: their file is kept and the
        # delta ships no newer copy of their key.
        shipped = np.repeat(keep, base_rows - base_stale)
        shipped &= ~np.isin(base_keys, keys)
        base_live[np.flatnonzero(base_live)[~shipped]] = False  # unpacked afresh
        kept_rows = np.repeat(keep, base_rows)
        base_stale = base_stale.copy()
        base_stale[base_fids.searchsorted(stale_ids)] = delta["stale_counts"]
        sizes = np.concatenate([base_rows[keep], np.diff(offsets)])
        file_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=file_offsets[1:])
        return {
            "file_ids": np.concatenate([base_fids[keep], fids]),
            "file_offsets": file_offsets,
            "file_live": np.packbits(np.concatenate([base_live[kept_rows], live])),
            "file_keys": np.concatenate([base_keys[shipped], keys]),
            "file_values": np.concatenate(
                [np.compress(shipped, base_values, axis=0), values]
            ),
            "file_stale": np.concatenate([base_stale[keep], stale]),
            "next_file_id": np.int64(delta["next_file_id"]),
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild the store from an :meth:`export_state` snapshot.

        Replaces any current contents; payloads are re-materialized in a
        fresh arena, key 0 and zero values at the stale rows.  The
        mapping is derived — each shipped key at its row — and the
        snapshot is fully validated — shapes, ascending file ids,
        ``next_file_id``, live-mask-vs-stale-counter consistency, no key
        shipped twice — *before* anything is dropped, so a snapshot
        rejected as invalid leaves the store untouched.
        """
        fids, offsets, live, keys, values, stale = _unpack(
            state, "snapshot", self.value_dim
        )
        file_index, row = _derive_mapping(fids, offsets, live, keys)
        self._reset_files()
        self._mapping = SlotIndex()
        self._mark = None  # a load: unmarked until its reader marks it
        slots = self._append_files(fids, offsets, *_spread(live, keys, values), stale)
        self._mapping.set(keys, slots[file_index] * self.file_capacity + row)
        self._next_file_id = int(state["next_file_id"])
        self.check_invariants()

    def check_invariants(self) -> None:
        """Debug/test hook: mapping, stale counters, byte and arena
        accounting — array expressions over the locators."""
        n = self._n_slots
        fids = self._slot_fid[:n]
        rows = np.where(fids >= 0, self._slot_rows[:n], 0)
        n_rows = int(rows.sum())
        if n_rows * self.row_bytes != self._total_bytes:
            raise AssertionError(
                f"cached total_bytes {self._total_bytes} != recomputed "
                f"{n_rows * self.row_bytes}"
            )
        if n_rows != self._arena_live or self._arena_live > self._arena_used:
            raise AssertionError(
                f"arena accounts {self._arena_live} live of "
                f"{self._arena_used} used rows, files hold {n_rows}"
            )
        keys, locs = self._mapping.items()
        slots, within = np.divmod(locs, self.file_capacity)
        dangling = (slots >= n) | (within >= rows[np.minimum(slots, n - 1)])
        if not dangling.any():
            dangling = self._arena_keys[self._slot_base[slots] + within] != keys
        if dangling.any():
            raise AssertionError(
                f"key {int(keys[dangling][0])} maps to a row that does "
                "not hold it (erased file?)"
            )
        live = np.bincount(slots, minlength=n)
        wrong = np.flatnonzero((fids >= 0) & (live != rows - self._slot_stale[:n]))
        if wrong.size:
            slot = int(wrong[0])
            raise AssertionError(
                f"file {int(fids[slot])}: stale counter says "
                f"{int(rows[slot] - self._slot_stale[slot])} live, mapping "
                f"says {int(live[slot])}"
            )


def _moved(arena: np.ndarray, capacity: int, src) -> np.ndarray:
    """A fresh ``capacity``-row arena headed by ``arena[src]`` (``src`` a
    slice or an index array).

    An anonymous mapping, not ``np.empty``: rows past the append point
    cost address space rather than memory, and a superseded arena goes
    straight back to the OS when dropped.  Megabyte blocks freed through
    malloc instead raise glibc's mmap threshold and then stay on the
    heap — on ``benchmarks/hps`` that alone was +6 % (``ssd_pressure``)
    and +12 % (``snapshot_serving``) peak RSS.
    """
    shape = (capacity, *arena.shape[1:])
    if capacity == 0:
        return np.empty(shape, dtype=arena.dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * arena.dtype.itemsize
    moved = np.frombuffer(mmap.mmap(-1, nbytes), dtype=arena.dtype).reshape(shape)
    if isinstance(src, slice):
        moved[src] = arena[src]
    else:
        np.take(arena, src, axis=0, out=moved[: src.size], mode="clip")
    return moved


def _unpack(state: dict[str, np.ndarray], what: str, value_dim: int) -> tuple:
    """A snapshot's or delta's packed files, validated (ValueError
    otherwise): ``(file ids, offsets, live, keys, values, stale)``, ids
    ascending, ``live`` the unpacked mask over every row, keys and values
    those of its set bits."""
    fids = np.asarray(state["file_ids"], dtype=np.int64)
    offsets = np.asarray(state["file_offsets"], dtype=np.int64)
    bits = np.asarray(state["file_live"])
    file_keys = as_keys(state["file_keys"])
    file_values = np.asarray(state["file_values"], dtype=np.float32)
    stale = np.asarray(state["file_stale"], dtype=np.int64)
    if file_values.shape != (file_keys.size, value_dim):
        raise ValueError(f"file-store {what} value shape mismatch")
    if (
        offsets.shape != (fids.size + 1,)
        or stale.shape != fids.shape
        or int(offsets[0]) != 0
        or bool((np.diff(offsets) < 0).any())
    ):
        raise ValueError(f"file-store {what} offsets mismatch")
    n = int(offsets[-1])
    if bits.dtype != np.uint8 or bits.shape != (-(-n // 8),):
        raise ValueError(f"file-store {what} live mask is not {n} packed bits")
    live = np.unpackbits(bits).view(bool)
    if np.count_nonzero(live) != file_keys.size or live[n:].any():
        raise ValueError(
            f"file-store {what} ships {file_keys.size} rows for "
            f"{np.count_nonzero(live)} live bits"
        )
    live = live[:n]
    shipped = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(live, out=shipped[1:])
    if bool((np.diff(fids) <= 0).any()):
        raise ValueError(f"file-store {what} file ids do not ascend")
    if fids.size and int(state["next_file_id"]) <= int(fids[-1]):
        raise ValueError(f"file-store {what} next_file_id is stale")
    # Each file ships exactly its live rows (the on-store check_invariants
    # contract, applied to the arrays).
    wrong = np.flatnonzero(np.diff(shipped[offsets]) != np.diff(offsets) - stale)
    if wrong.size:
        raise ValueError(
            f"file-store {what} stale counter of file "
            f"{int(fids[wrong[0]])} disagrees with its live mask"
        )
    return fids, offsets, live, file_keys, file_values, stale


def _spread(
    live: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shipped rows as a restore writes them: at the set bits of
    ``live``, key 0 and zero values at the rest."""
    at = np.flatnonzero(live)
    all_keys = np.zeros(live.size, dtype=KEY_DTYPE)
    all_keys[at] = keys
    all_values = np.zeros((live.size, values.shape[1]), dtype=np.float32)
    put_rows(all_values, at, values)
    return all_keys, all_values


def packed_file(
    state: dict[str, np.ndarray], file_id: int, value_dim: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """File ``file_id``'s ``(keys, values)`` as a restore writes them,
    out of an :meth:`FileStore.export_state` / :meth:`FileStore.export_delta`
    tier's packed files (validated as a load validates them), or
    ``None`` when they pack no such file."""
    fids, offsets, live, keys, values, _ = _unpack(state, "packed", value_dim)
    i = int(np.searchsorted(fids, file_id))
    if i == fids.size or int(fids[i]) != file_id:
        return None
    lo, hi = int(offsets[i]), int(offsets[i + 1])
    first = int(np.count_nonzero(live[:lo]))
    rows = slice(first, first + int(np.count_nonzero(live[lo:hi])))
    return _spread(live[lo:hi], keys[rows], values[rows])


def _derive_mapping(
    file_ids: np.ndarray, offsets: np.ndarray, live: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The mapping packed files imply: each shipped key lives at its row.
    Returns ``(file_index, row)`` aligned with ``keys``, ``file_index``
    into ``file_ids``.  ValueError naming a key shipped twice and the
    files shipping it, or a key past the index's domain."""
    at = np.flatnonzero(live)
    owner = np.searchsorted(offsets, at, side="right") - 1
    order = keys.argsort(kind="stable")
    twice = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if twice.size:
        a, b = order[twice[0]], order[twice[0] + 1]
        raise ValueError(
            f"file-store snapshot ships key {int(keys[a])} twice, in file "
            f"{int(file_ids[owner[a]])} and file {int(file_ids[owner[b]])}"
        )
    if keys.size:
        check_key_cap(int(keys[order[-1]]), "file-store snapshot mapping")
    return owner, at - offsets[owner]
