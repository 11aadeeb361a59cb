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
it.  Every file's keys — and, on the memory backend, its payload rows —
sit packed in one arena per store, so a read is one index probe, one
array pass over the touched files that only *accounts* (extent cache,
fault arm, device charge; in ascending file-id order, which is part of
the simulated-clock contract because float seconds accumulate in it) and
one gather.  What leaves the store (``mapping_of``, checkpoints) speaks
file ids.

Two backends: ``memory`` (default — payloads in the arena) and ``disk``
(payloads as ``.npy`` files in a directory, for tests that want real
I/O; loading them is the one step left per file).  Timing always comes
from the :class:`SSDDevice` model.
"""

from __future__ import annotations

import io
import mmap
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import TierStateError
from repro.faults.errors import PayloadLostError
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.hardware.ssd_device import SSDDevice
from repro.ssd.extent_cache import FileHandleCache
from repro.store.slot_index import SlotIndex
from repro.utils.io import atomic_write_bytes
from repro.utils.keys import KEY_DTYPE, as_keys, compact_unique

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
    keys: np.ndarray  # sorted unique keys stored in this file (a copy)
    stale_count: int = 0
    #: disk backend: path of the .npy payload.
    path: str | None = None

    @property
    def n_params(self) -> int:
        return int(self.keys.size)

    @property
    def n_live(self) -> int:
        return self.n_params - self.stale_count

    def stale_fraction(self) -> float:
        return self.stale_count / self.n_params if self.n_params else 1.0


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a batched read.

    ``files_read``/``bytes_read`` count what was actually charged to the
    device; ``cache_hits`` counts the touched files served from the
    :class:`~repro.ssd.extent_cache.FileHandleCache` instead, each
    charged the cheap warm (host-DRAM copy) rate rather than a device
    read.
    """

    values: np.ndarray
    found: np.ndarray
    seconds: float
    files_read: int
    bytes_read: int
    cache_hits: int = 0


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
        extent_cache_files: int = 0,
        key_domain: int | None = None,
    ) -> None:
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
        #: cross-round file cache; disabled (0 capacity) by default so
        #: charged seconds stay identical to the pre-cache behaviour.
        self.extent_cache = FileHandleCache(extent_cache_files)
        #: fault-injection guard for cold file reads
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._key_domain = key_domain
        #: vectorized key -> row locator (``slot * file_capacity + row``)
        self._mapping = SlotIndex(1024, key_domain=key_domain)
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
        #: the arenas: every live file's keys (both backends) and payload
        #: rows (memory backend) at ``base .. base + rows``.  Rows of
        #: erased files are garbage until the next repack.  Nothing may
        #: keep a view: it would pin a superseded arena after growth.
        self._arena_keys = np.empty(0, dtype=KEY_DTYPE)
        self._arena = (
            np.empty((0, self.value_dim), dtype=np.float32)
            if self.directory is None
            else None
        )
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

    def file_bytes(self, f: ParameterFile) -> int:
        return f.n_params * self.row_bytes

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
            self._path(file_id),
        )

    def files(self) -> list[ParameterFile]:
        """Every live file's record, in ascending file-id order."""
        return [self.file(fid) for fid in sorted(self._slot_of)]

    def file_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(file ids, row counts, stale counters)`` of the live files,
        in ascending file-id order."""
        slots = self._live_slots()
        return self._slot_fid[slots], self._slot_rows[slots], self._slot_stale[slots]

    def mapping_of(self, keys: np.ndarray) -> np.ndarray:
        """File id per key (-1 if unmapped), vectorized."""
        locs, found = self._mapping.get(as_keys(keys))
        fids = self._slot_fid[locs // self.file_capacity]
        fids[~found] = -1
        return fids

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
        if self._arena is not None:
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
        ``values``; returns their slots.  On the disk backend the
        payloads are made durable *first*, so a write that dies midway
        leaves nothing visible."""
        if self._arena is None:
            # One .npy write per file: the disk backend's I/O unit.
            for i in range(offsets.size - 1):
                self._store_payload(int(file_ids[i]), values[offsets[i] : offsets[i + 1]])
        n = keys.shape[0]
        base = self._reserve(n)
        self._arena_keys[base : base + n] = keys
        if self._arena is not None:
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
    def _path(self, file_id: int) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"params_{file_id:08d}.npy")

    def _payload(self, file_id: int) -> np.ndarray:
        """Payload rows of one file, aligned with its keys (memory
        backend: a transient arena view — use it, don't keep it)."""
        if self._arena is None:
            return np.load(self._path(file_id))
        slot = self._slot_of[file_id]
        base = int(self._slot_base[slot])
        return self._arena[base : base + int(self._slot_rows[slot])]

    def _store_payload(self, file_id: int, values: np.ndarray) -> None:
        """Persist a file's payload; durable before it becomes visible.

        The disk backend writes to a temp file, fsyncs, and ``os.replace``s
        into the final name, so an interrupted write can never leave a
        truncated ``.npy`` under the path a registered file will name.
        The memory backend writes through the arena (the fault arm's
        quarantine re-materializes a registered file this way).
        """
        if self._arena is not None:
            self._payload(file_id)[:] = values
            return
        buf = io.BytesIO()
        np.save(buf, values)
        atomic_write_bytes(self._path(file_id), buf.getvalue())

    def _gather(self, slots: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Payload rows at ``(slot, row)`` pairs: one arena gather — on the
        disk backend, one ``.npy`` load per distinct file instead."""
        if self._arena is not None:
            return self._arena.take(self._slot_base[slots] + rows, axis=0)
        out = np.empty((slots.size, self.value_dim), dtype=np.float32)
        order = slots.argsort(kind="stable")
        by_slot = slots[order]
        cuts = np.flatnonzero(by_slot[1:] != by_slot[:-1]) + 1
        for sel in np.split(order, cuts) if slots.size else ():
            fid = int(self._slot_fid[slots[sel[0]]])
            out[sel] = np.load(self._path(fid))[rows[sel]]
        return out

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
        call, in ascending file-id order.  A cold-read fault that escapes
        the arm leaves the ``ssd_read`` ledger line, the device counters
        and the extent cache as they were.
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

        # The accounting pass, as arrays: which touched files the extent
        # cache holds (a hit is a host-DRAM copy, priced at the warm
        # rate), the fault arm's guard on every cold file, then one
        # device charge.  Per file, the seconds step is [guard, read].
        sizes = self._slot_rows[hit_slots] * self.row_bytes
        warm = self.extent_cache.probe(fids)
        cold = np.flatnonzero(~warm)
        steps = np.zeros((fids.size, 2))
        if self.faults is not None:
            # Armed cold reads: transient errors / torn payloads retry
            # with backoff; exhaustion quarantines the file (from the
            # newest checkpoint chain) or raises PayloadLostError — before
            # anything else is charged or cached.  The extra seconds land
            # on the ledger's fault_retry line inside the arm.
            for i in cold.tolist():
                steps[i, 0] = self.faults.ssd_read(self, self.file(int(fids[i])))
        self.extent_cache.touch(fids, warm)
        steps[:, 1] = self.device.read_files(sizes, warm)
        total_t = float(np.cumsum(steps)[-1])

        out = self._gather(slots, rows)
        if n_found != keys.size:
            values = np.zeros((keys.size, self.value_dim), dtype=np.float32)
            values[found] = out
            out = values
        return ReadResult(
            out, found, total_t, cold.size, int(sizes[cold].sum()), fids.size - cold.size
        )

    # ------------------------------------------------------------------
    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, values)``, sorted by key (no I/O charged)."""
        keys, locs = self._mapping.items()
        order = keys.argsort()
        slots, rows = np.divmod(locs[order], self.file_capacity)
        return keys[order], self._gather(slots, rows)

    def _live(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(key, slot, row)`` of every row of the files in ``slots`` the
        mapping still points at."""
        owner, within, at = self._rows_of(slots)
        keys = self._arena_keys[at]
        locs, _ = self._mapping.get(keys)
        live = locs == owner * self.file_capacity + within
        return keys[live], owner[live], within[live]

    def live_rows(self, file_ids) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) of the non-stale rows of the files ``file_ids``,
        file by file in the given order (no I/O charged)."""
        slots = np.asarray([self._slot_of[int(f)] for f in file_ids], dtype=np.int64)
        keys, owner, within = self._live(slots)
        return keys, self._gather(owner, within)

    def erase(self, file_id: int) -> None:
        """Remove a file (compaction has rewritten its live rows).

        A disk-backed file whose ``.npy`` payload has vanished is *data
        loss*, not a no-op: silently proceeding would let compaction
        destroy the bookkeeping for rows whose only copy is already gone.
        The memory backend has no payload file and erases trivially; the
        file's arena rows are garbage until the next :meth:`reclaim`.
        """
        slot = self._slot_of[file_id]
        path = self._path(file_id)
        if path is not None and not os.path.exists(path):
            raise PayloadLostError(
                f"parameter file {file_id} payload missing "
                f"({path!r}) — refusing to erase lost data",
                file_id=file_id,
                keys=self._live(np.asarray([slot], dtype=np.int64))[0],
            )
        del self._slot_of[file_id]
        rows = int(self._slot_rows[slot])
        self._total_bytes -= rows * self.row_bytes
        self._arena_live -= rows
        self._slot_fid[slot] = -1
        # Erase is the only operation that destroys a payload (compaction
        # erases its victims through here) — drop the cache entry so the
        # extent cache can never vouch for a dead file.
        self.extent_cache.invalidate(file_id)
        if path is not None:
            os.remove(path)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _pack_files(self, slots: np.ndarray) -> dict[str, np.ndarray]:
        """The files in ``slots`` in the snapshot layout: variable-length
        payloads packed into one concatenated key/value pair plus an
        offsets array, so they can live in a single ``.npz`` shard."""
        offsets = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(self._slot_rows[slots], out=offsets[1:])
        owner, within, at = self._rows_of(slots)
        return {
            "file_ids": self._slot_fid[slots],
            "file_offsets": offsets,
            "file_keys": self._arena_keys[at],
            "file_values": self._gather(owner, within),
            "file_stale": self._slot_stale[slots],
        }

    def _pack_extent_cache(self, out: dict[str, np.ndarray]) -> None:
        """Attach the extent cache's residency (LRU-order file ids): hits
        go at the warm rate instead of the device rate, so a restored run
        only replays the original run's I/O schedule if the warm set
        comes back too."""
        out["extent_cache_fids"] = np.asarray(
            self.extent_cache.resident_ids(), dtype=np.int64
        )

    def export_state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of files, payloads, mapping and counters.

        The mapping is saved explicitly (rather than re-derived), as
        ``(key, file id)`` rows sorted by key, so a restore can
        cross-check it against the files and their stale counters.
        """
        out = self._pack_files(self._live_slots())
        map_keys, locs = self._mapping.items()
        order = map_keys.argsort()
        out["map_keys"] = map_keys[order]
        out["map_fids"] = self._slot_fid[locs[order] // self.file_capacity]
        out["next_file_id"] = np.int64(self._next_file_id)
        self._pack_extent_cache(out)
        return out

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff the store against the snapshot it was last marked at.

        Files are immutable and ids monotone, so the diff is exact and
        cheap: every file with an id at or past the mark's watermark is
        new (its keys/values ship in the same packed layout as the full
        export); marked files absent now were erased by compaction;
        surviving ones can only have changed their stale counter.
        Mapping rows are shipped for exactly the keys appearing in new
        files — the only operation that repoints the mapping is
        :meth:`write`, which always lands keys in a new file, so that
        set covers every changed row.  The extent-cache residency ships
        in full (it is a handful of ids).

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
        out["map_keys"] = compact_unique(out["file_keys"])
        out["map_fids"] = self.mapping_of(out["map_keys"])
        out["next_file_id"] = np.int64(self._next_file_id)
        self._pack_extent_cache(out)
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

        Pure: neither input nor the store is touched.  Files are
        immutable and ids monotone, so the fold is the store's history on
        arrays: erased base files drop out, survivors take their new
        stale counters, new files append and every shipped mapping row
        replaces its key's base row.  The delta is validated as a load
        validates a snapshot and must name ``base``'s file-id watermark
        and only files ``base`` holds; :meth:`load_state` validates the
        result.
        """
        watermark = int(base["next_file_id"])
        if int(delta["base_next_file_id"]) != watermark:
            raise ValueError(
                f"delta was diffed against next_file_id="
                f"{int(delta['base_next_file_id'])}, base is at {watermark}"
            )
        (fids, offsets, keys, values, stale), _ = _unpack(delta, "delta", self.value_dim)
        if fids.size and int(fids.min()) < watermark:
            raise ValueError("file-store delta contains pre-base file ids")
        base_fids = np.asarray(base["file_ids"], dtype=np.int64)
        erased = np.asarray(delta["erased_ids"], dtype=np.int64)
        stale_ids = np.asarray(delta["stale_ids"], dtype=np.int64)
        named = np.concatenate([erased, stale_ids])
        unknown = named[~np.isin(named, base_fids)]
        if unknown.size:
            raise ValueError(
                f"file-store delta erases or re-counts unknown file {int(unknown[0])}"
            )
        by_id = base_fids.argsort()
        recount = by_id[base_fids.searchsorted(stale_ids, sorter=by_id)]
        base_stale = np.array(base["file_stale"], dtype=np.int64)
        base_stale[recount] = delta["stale_counts"]
        keep = ~np.isin(base_fids, erased)
        base_rows = np.diff(np.asarray(base["file_offsets"], dtype=np.int64))
        kept_rows = np.repeat(keep, base_rows)
        sizes = np.concatenate([base_rows[keep], np.diff(offsets)])
        file_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=file_offsets[1:])
        unshipped = ~np.isin(base["map_keys"], delta["map_keys"])
        map_keys = np.concatenate([base["map_keys"][unshipped], delta["map_keys"]])
        map_fids = np.concatenate([base["map_fids"][unshipped], delta["map_fids"]])
        by_key = map_keys.argsort(kind="stable")
        return {
            "file_ids": np.concatenate([base_fids[keep], fids]),
            "file_offsets": file_offsets,
            "file_keys": np.concatenate([as_keys(base["file_keys"])[kept_rows], keys]),
            "file_values": np.concatenate(
                [np.compress(kept_rows, base["file_values"], axis=0), values]
            ),
            "file_stale": np.concatenate([base_stale[keep], stale]),
            "map_keys": as_keys(map_keys[by_key]),
            "map_fids": map_fids[by_key],
            "next_file_id": np.int64(delta["next_file_id"]),
            "extent_cache_fids": np.asarray(delta["extent_cache_fids"], dtype=np.int64),
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild the store from an :meth:`export_state` snapshot.

        Replaces any current contents; payloads are re-materialized
        through the store's own backend (disk-backed stores rewrite the
        ``.npy`` files under their directory).  The snapshot is fully
        validated — shapes, ``next_file_id``, every mapping row naming a
        file that holds its key, mapping-vs-stale-counter consistency —
        *before* anything is erased, so a snapshot rejected as invalid
        leaves the store untouched.  (A hard I/O failure while
        re-materializing payloads can still leave a partial rebuild;
        checkpoint restores are immune because they load into a freshly
        constructed, empty store.)
        """
        files, (map_keys, file_index, row) = _unpack(state, "snapshot", self.value_dim)
        fids, offsets, _, _, stale = files
        # The mapping must agree with the stale counters file by file
        # (the on-store check_invariants contract, applied to the arrays).
        live = np.bincount(file_index, minlength=fids.size)
        wrong = np.flatnonzero(live != np.diff(offsets) - stale)
        if wrong.size:
            raise ValueError(
                f"file-store snapshot stale counter of file "
                f"{int(fids[wrong[0]])} disagrees with its mapping"
            )
        for fid in list(self._slot_of):
            self.erase(fid)
        self._reset_files()
        self._mapping = SlotIndex(max(1024, map_keys.size), key_domain=self._key_domain)
        self._mark = None  # a load: unmarked until its reader marks it
        slots = self._append_files(*files)
        self._mapping.set(map_keys, slots[file_index] * self.file_capacity + row)
        self._next_file_id = int(state["next_file_id"])
        # The warm set: warm() admits only the newest max_files ids, so a
        # store smaller than the snapshot's never over-warms nor counts
        # evictions.
        warm = np.asarray(state.get("extent_cache_fids", ()), dtype=np.int64)
        self.extent_cache.warm(warm[np.isin(warm, fids)])
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
    """A snapshot's or delta's packed files and mapping rows, fully
    validated (ValueError otherwise): ``((file ids, offsets, keys,
    values, stale), (mapping keys, file index, row))`` — see
    :func:`_resolve_mapping`."""
    fids = np.asarray(state["file_ids"], dtype=np.int64)
    offsets = np.asarray(state["file_offsets"], dtype=np.int64)
    file_keys = as_keys(state["file_keys"])
    file_values = np.asarray(state["file_values"], dtype=np.float32)
    stale = np.asarray(state["file_stale"], dtype=np.int64)
    map_keys = as_keys(state["map_keys"])
    map_fids = np.asarray(state["map_fids"], dtype=np.int64)
    if file_values.shape != (file_keys.size, value_dim):
        raise ValueError(f"file-store {what} value shape mismatch")
    if (
        offsets.shape != (fids.size + 1,)
        or stale.shape != fids.shape
        or int(offsets[0]) != 0
        or int(offsets[-1]) != file_keys.size
        or bool((np.diff(offsets) < 0).any())
    ):
        raise ValueError(f"file-store {what} offsets mismatch")
    if fids.size and int(state["next_file_id"]) <= int(fids.max()):
        raise ValueError(f"file-store {what} next_file_id is stale")
    if map_fids.shape != map_keys.shape:
        raise ValueError(f"file-store {what} mapping malformed")
    if not np.isin(map_fids, fids).all():
        raise ValueError(f"file-store {what} maps keys to unknown files")
    files = (fids, offsets, file_keys, file_values, stale)
    return files, _resolve_mapping(map_keys, map_fids, fids, offsets, file_keys, what)


def _resolve_mapping(
    map_keys: np.ndarray,
    map_fids: np.ndarray,
    file_ids: np.ndarray,
    offsets: np.ndarray,
    file_keys: np.ndarray,
    what: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve checkpointed ``(key, file id)`` mapping rows to rows of the
    packed files: returns ``(keys, file_index, row)`` with the keys in
    ascending order, ``file_index`` into ``file_ids`` and ``row`` inside
    that file.  ValueError on duplicate keys, or naming the first key
    whose file does not hold it (exactly once)."""
    m = map_keys.size
    if m > 1 and not bool((map_keys[1:] > map_keys[:-1]).all()):
        order = map_keys.argsort()
        map_keys, map_fids = map_keys[order], map_fids[order]
        if bool((map_keys[1:] == map_keys[:-1]).any()):
            raise ValueError(f"file-store {what} mapping malformed")
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return map_keys, empty, empty
    # One binary search of every stored row into the sorted mapping: the
    # stored rows that are live are those whose entry names their file.
    owner = np.repeat(np.arange(file_ids.size, dtype=np.int64), np.diff(offsets))
    at = np.minimum(np.searchsorted(map_keys, file_keys), m - 1)
    live = np.flatnonzero(
        (map_keys[at] == file_keys) & (map_fids[at] == file_ids[owner])
    )
    entry = at[live]
    copies = np.bincount(entry, minlength=m)
    if bool((copies != 1).any()):
        i = int(np.flatnonzero(copies != 1)[0])
        held = f"holds it {int(copies[i])} times" if copies[i] else "does not hold it"
        raise ValueError(
            f"file-store {what} maps key {int(map_keys[i])} to file "
            f"{int(map_fids[i])}, which {held}"
        )
    file_index = np.empty(m, dtype=np.int64)
    row = np.empty(m, dtype=np.int64)
    file_index[entry] = owner[live]
    row[entry] = live - offsets[owner[live]]
    return map_keys, file_index, row
