"""Cross-round file/extent cache for the SSD miss path.

:class:`FileHandleCache` keeps recently-read parameter files resident
across rounds, so repeated cache-miss batches that touch the same
:class:`~repro.ssd.file_store.ParameterFile` stop re-paying the full
payload-read cost every round.  It is a device of the *cost model*: an
entry can carry a payload, but :class:`~repro.ssd.file_store.FileStore`
records bare residency — its payloads live in the store's arena (or its
``.npy`` files), and a cached view of the arena would pin, and after a
repack misread, a superseded one.  The cache is bounded (``max_files``
entries, LRU replacement) and exactly invalidated:

* ``write`` never invalidates — parameter files are immutable, new data
  always lands in *new* file ids, and a repointed mapping simply stops
  routing reads at the stale rows (the cached payload stays byte-valid
  for every key still mapped to that file);
* ``erase`` (the only operation that destroys a payload — compaction
  erases its victims through it) must drop the entry, which
  :meth:`FileStore.erase` does via :meth:`invalidate`.

A hit serves the payload at the *warm* rate — a host-DRAM copy priced by
:meth:`~repro.hardware.ssd_device.SSDDevice.read_warm`, far cheaper than
the device read it replaces but never free — so the cache can default on
(``ClusterConfig.ssd_extent_cache_files``) without forking the
sim-seconds parity groups: like-configured runs still agree bit-exactly,
and the cost model keeps an honest account of where every byte came
from.

Self-tuning capacity
--------------------
With ``resize_every`` > 0 the cache sizes itself to the workload instead
of trusting a hand-picked ``max_files``.  Every :meth:`get` records the
touched file's *reuse distance* — the number of file touches since that
file was last touched, tracked through a bounded ghost list so evicted
files still report distances — into a windowed histogram.  Every
``resize_every`` touches the cache re-targets its capacity at the
distance that would have caught 90 % of the window's observed reuses,
clamped to ``[min_files, max_files_limit]``, and shrinks or grows to it
(a shrink drops the coldest payloads — its price is the device-rate
re-read any of them that return will pay; a resize itself moves no
bytes and charges no seconds).  Resize events are counted
(:attr:`resizes`) and the whole tuning state — capacity, clock, ghost
list, histogram window — exports/restores through the file store's
checkpoint protocol, so a restored run replays the original run's
resize schedule exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FileHandleCache"]

#: Catch this fraction of the window's observed reuses when re-targeting
#: the capacity (the q-th percentile of the reuse-distance histogram).
_REUSE_QUANTILE = 0.9

#: Ghost-list bound, as a multiple of the largest capacity the tuner may
#: pick: distances longer than any reachable capacity carry no sizing
#: signal, so the ghost list forgets them.
_GHOST_FACTOR = 4


class FileHandleCache:
    """Bounded LRU cache of parameter files (an entry is a payload or, as
    ``FileStore`` uses it, bare residency), keyed by file id.

    ``max_files <= 0`` disables the cache entirely: every operation is a
    no-op and :meth:`get` always misses, so a disabled cache is
    bit-identical (values, found masks, *and* charged seconds) to not
    constructing one at all.

    ``resize_every`` > 0 turns on the self-tuning capacity described in
    the module docstring; ``min_files`` / ``max_files_limit`` bound what
    the tuner may pick (``max_files`` stays the live capacity at every
    instant — the tuner mutates it).
    """

    def __init__(
        self,
        max_files: int = 0,
        *,
        resize_every: int = 0,
        min_files: int = 1,
        max_files_limit: int | None = None,
    ) -> None:
        self.max_files = int(max_files)
        self.resize_every = int(resize_every)
        self.min_files = int(min_files)
        self.max_files_limit = int(
            max_files_limit if max_files_limit is not None else max(max_files, 1)
        )
        if self.resize_every > 0:
            if not 0 < self.min_files <= self.max_files_limit:
                raise ValueError(
                    "adaptive extent cache needs 0 < min_files <= "
                    "max_files_limit"
                )
            if not self.min_files <= self.max_files <= self.max_files_limit:
                raise ValueError(
                    "initial capacity must lie within the adaptive bounds"
                )
        #: insertion-ordered: oldest (least recently used) first.
        self._payloads: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: capacity re-target events taken by the tuner
        self.resizes = 0
        #: the tuner's last chosen reuse-distance target (0 = none yet)
        self.reuse_target = 0
        #: monotone file-touch clock driving the tuner
        self._clock = 0
        #: insertion-ordered ghost list: fid -> clock of last touch
        #: (spans residents *and* recently evicted files)
        self._last_touch: dict[int, int] = {}
        #: reuse distances observed since the last resize decision
        self._reuse_window: list[int] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_files > 0

    @property
    def adaptive(self) -> bool:
        return self.enabled and self.resize_every > 0

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, file_id: int) -> bool:
        return int(file_id) in self._payloads

    # ------------------------------------------------------------------
    def _record_touch(self, fid: int) -> None:
        """Advance the tuner's clock for one file touch of ``fid``."""
        last = self._last_touch.pop(fid, None)
        if last is not None:
            self._reuse_window.append(self._clock - last)
        self._last_touch[fid] = self._clock
        self._clock += 1
        ghost_cap = _GHOST_FACTOR * self.max_files_limit
        while len(self._last_touch) > ghost_cap:
            del self._last_touch[next(iter(self._last_touch))]
        if self._clock % self.resize_every == 0:
            self._retarget()

    def _retarget(self) -> None:
        """Re-size toward the window's observed reuse distances."""
        if not self._reuse_window:
            return
        window = sorted(self._reuse_window)
        self._reuse_window = []
        target = window[min(len(window) - 1, int(len(window) * _REUSE_QUANTILE))]
        self.reuse_target = int(target)
        new_cap = min(self.max_files_limit, max(self.min_files, int(target)))
        if new_cap == self.max_files:
            return
        self.max_files = new_cap
        self.resizes += 1
        # A shrink drops the coldest payloads now; their price is the
        # device-rate re-read any of them that return will pay.
        while len(self._payloads) > self.max_files:
            del self._payloads[next(iter(self._payloads))]
            self.evictions += 1

    # ------------------------------------------------------------------
    def get(self, file_id: int) -> np.ndarray | None:
        """Cached payload of ``file_id`` (refreshing recency), or None."""
        if not self.enabled:
            return None
        fid = int(file_id)
        if self.adaptive:
            self._record_touch(fid)
        payload = self._payloads.pop(fid, None)
        if payload is None:
            self.misses += 1
            return None
        # Re-insert to move to the most-recently-used end.
        self._payloads[fid] = payload
        self.hits += 1
        return payload

    def put(self, file_id: int, payload: np.ndarray) -> None:
        """Admit ``payload``; evicts the least recently used past capacity."""
        if not self.enabled:
            return
        fid = int(file_id)
        self._payloads.pop(fid, None)
        self._payloads[fid] = payload
        while len(self._payloads) > self.max_files:
            oldest = next(iter(self._payloads))
            del self._payloads[oldest]
            self.evictions += 1

    def warm(self, file_ids, payload_of) -> None:
        """Re-warm from a snapshot's LRU-ordered resident ids.

        Admits only the *newest* ``max_files`` ids — the snapshot may
        have been taken at a larger capacity (a fixed-size restore into
        a smaller store, or an adaptive cache that shrank since), and
        pushing every snapshot id through :meth:`put` would churn the
        over-capacity prefix straight through the cache, spuriously
        counting an eviction (and materializing a payload) per dropped
        id.  ``payload_of(fid)`` materializes the payload for an
        admitted id; ids the caller no longer holds must be filtered
        before calling.
        """
        if not self.enabled:
            return
        ids = [int(f) for f in file_ids]
        for fid in ids[max(0, len(ids) - self.max_files) :]:
            self.put(fid, payload_of(fid))

    def invalidate(self, file_id: int) -> bool:
        """Drop ``file_id``'s payload (file erased); True if present."""
        if self._payloads.pop(int(file_id), None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._payloads.clear()

    # ------------------------------------------------------------------
    def export_tuning(self) -> dict[str, np.ndarray]:
        """The tuner's replay state (capacity, clock, ghosts, window).

        Shipped with the file-store snapshot so a restored run re-takes
        the original run's resize decisions at the original touches.
        """
        ghost_fids = np.asarray(list(self._last_touch), dtype=np.int64)
        ghost_clocks = np.asarray(
            list(self._last_touch.values()), dtype=np.int64
        )
        return {
            "capacity": np.int64(self.max_files),
            "resizes": np.int64(self.resizes),
            "reuse_target": np.int64(self.reuse_target),
            "clock": np.int64(self._clock),
            "ghost_fids": ghost_fids,
            "ghost_clocks": ghost_clocks,
            "reuse_window": np.asarray(self._reuse_window, dtype=np.int64),
        }

    def load_tuning(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`export_tuning` state (adaptive caches only)."""
        self.max_files = int(state["capacity"])
        self.resizes = int(state["resizes"])
        self.reuse_target = int(state["reuse_target"])
        self._clock = int(state["clock"])
        self._last_touch = {
            int(f): int(c)
            for f, c in zip(state["ghost_fids"], state["ghost_clocks"])
        }
        self._reuse_window = [int(d) for d in state["reuse_window"]]

    # ------------------------------------------------------------------
    def resident_ids(self) -> list[int]:
        """Cached file ids, least recently used first."""
        return list(self._payloads)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident": len(self._payloads),
            "capacity": self.max_files,
            "resizes": self.resizes,
            "reuse_target": self.reuse_target,
        }
