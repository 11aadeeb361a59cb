"""Cross-round file/extent cache for the SSD miss path.

:class:`FileHandleCache` keeps recently-read parameter files resident
across rounds, so repeated cache-miss batches that touch the same
parameter file stop re-paying the full payload-read cost every round.
It is a device of the *cost model* and records bare residency: the
payloads live in the store's arena (or its ``.npy`` files), and a cached
view of the arena would pin, and after a repack misread, a superseded
one.  The cache is bounded (``max_files`` entries, LRU replacement) and
exactly invalidated:

* ``write`` never invalidates — parameter files are immutable, new data
  always lands in *new* file ids, and a repointed mapping simply stops
  routing reads at the stale rows (the file stays byte-valid for every
  key still mapped to it);
* ``erase`` (the only operation that destroys a payload — compaction
  erases its victims through it) must drop the entry, which
  :meth:`FileStore.erase` does via :meth:`invalidate`.

A hit serves the payload at the *warm* rate — a host-DRAM copy priced by
:meth:`~repro.hardware.ssd_device.SSDDevice.warm_read_time`, far cheaper
than the device read it replaces but never free — so the cache can
default on (``ClusterConfig.ssd_extent_cache_files``) without forking
the sim-seconds parity groups: like-configured runs still agree
bit-exactly, and the cost model keeps an honest account of where every
byte came from.  A read accesses its touched files as one batch, exactly
as if one by one, in Python work bounded by the capacity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FileHandleCache"]


class FileHandleCache:
    """Bounded LRU set of resident parameter-file ids.

    ``max_files <= 0`` disables the cache entirely: every file misses
    and nothing is counted, so a disabled cache is bit-identical
    (values, found masks, *and* charged seconds) to not constructing
    one at all.
    """

    def __init__(self, max_files: int = 0) -> None:
        self.max_files = int(max_files)
        #: insertion-ordered: oldest (least recently used) first.
        self._resident: dict[int, bool] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_files > 0

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, file_id: int) -> bool:
        return int(file_id) in self._resident

    # ------------------------------------------------------------------
    def probe(self, file_ids: np.ndarray) -> np.ndarray:
        """Hit mask of accessing the unique ``file_ids`` in order, each
        miss admitted as it goes (a get-then-put-on-miss walk); changes
        nothing.  A resident file hits if fewer than ``max_files`` others
        are more recent at its turn — so misses ahead of it in the batch
        can evict it first."""
        hits = np.zeros(file_ids.size, dtype=bool)
        r = len(self._resident)
        if not self.enabled or r == 0 or file_ids.size == 0:
            return hits
        resident = np.fromiter(self._resident, dtype=np.int64, count=r)
        order = file_ids.argsort()
        at = np.minimum(file_ids[order].searchsorted(resident), order.size - 1)
        pos = np.where(file_ids[order[at]] == resident, order[at], -1)
        # [p, q]: resident q is after p in LRU order and comes earlier in
        # the batch — counted once already, among the residents after p.
        seen = np.triu((pos >= 0) & (pos < pos[:, None]), 1).sum(axis=1)
        newer = np.arange(r - 1, -1, -1) + pos - seen
        hit = (pos >= 0) & (newer < self.max_files)
        hits[pos[hit]] = True
        return hits

    def touch(self, file_ids: np.ndarray, hits: np.ndarray) -> None:
        """Record the access :meth:`probe` returned ``hits`` for: the
        batch becomes the most recently used end, in order, and the
        least recently used files beyond ``max_files`` are evicted."""
        if not self.enabled or file_ids.size == 0:
            return
        n_hits = int(np.count_nonzero(hits))
        ids = file_ids[-self.max_files :].tolist()
        room = self.max_files - len(ids)
        if room:
            batch = set(ids)
            older = [fid for fid in self._resident if fid not in batch]
            ids = older[max(0, len(older) - room) :] + ids
        misses = file_ids.size - n_hits
        self.evictions += len(self._resident) + misses - len(ids)
        self.hits += n_hits
        self.misses += misses
        self._resident = dict.fromkeys(ids, True)

    def warm(self, file_ids) -> None:
        """Replace the residency with a snapshot's LRU-ordered ids.

        Keeps only the *newest* ``max_files`` of them — the snapshot may
        have been taken at a larger capacity (a restore into a smaller
        store) — and counts no eviction for the ones left out.  Ids the
        caller no longer holds must be filtered before calling.
        """
        if not self.enabled:
            return
        ids = [int(f) for f in file_ids]
        self._resident = dict.fromkeys(ids[max(0, len(ids) - self.max_files) :], True)

    def invalidate(self, file_id: int) -> bool:
        """Drop ``file_id`` (file erased); True if it was resident."""
        if self._resident.pop(int(file_id), False):
            self.invalidations += 1
            return True
        return False

    # ------------------------------------------------------------------
    def resident_ids(self) -> list[int]:
        """Cached file ids, least recently used first."""
        return list(self._resident)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident": len(self._resident),
            "capacity": self.max_files,
        }
