"""File compaction (paper Section 6, Appendix E).

Disk usage grows as every dump creates new files and strands stale rows in
old ones.  A background thread (here: an explicitly invoked step, so tests
and the pipeline stay deterministic) checks the usage and, past a
threshold, merges files that are **more than 50% stale** into fresh files,
erasing the originals.

The 50% victim rule gives the paper's bound: live data can at most double
on disk (1 / 0.5 = 2×).  Stale fractions come from the per-file counters —
no file contents are read to make the decision.
"""

from __future__ import annotations

import numpy as np

from repro.ssd.file_store import FileStore

__all__ = ["Compactor", "STALE_FRACTION"]

#: Only files at least this stale are merged (paper: the 50 % rule).
STALE_FRACTION = 0.5


class Compactor:
    """Usage-threshold-triggered merger of mostly-stale parameter files.

    Parameters
    ----------
    store:
        The file store to compact.
    usage_threshold:
        Compaction triggers when ``total_bytes > usage_threshold *
        live_bytes`` (a cluster passes ``ClusterConfig.compaction_threshold``).
        Victims are the files at least :data:`STALE_FRACTION` stale.
    """

    def __init__(self, store: FileStore, *, usage_threshold: float) -> None:
        if not usage_threshold >= 1.0:  # NaN fails too
            raise ValueError("usage_threshold must be >= 1.0")
        self.store = store
        self.usage_threshold = usage_threshold
        self.total_compactions = 0

    # ------------------------------------------------------------------
    def should_compact(self) -> bool:
        live = self.store.live_bytes
        if live == 0:
            return self.store.total_bytes > 0
        return self.store.total_bytes > self.usage_threshold * live

    def _select(self) -> tuple[np.ndarray, np.ndarray]:
        """``(file ids, row counts)`` of the merge victims, most-stale
        first, ties by ascending file id — a fixed order, because the
        victims' read charges accumulate in it."""
        fids, rows, stale = self.store.file_table()
        fraction = np.where(rows > 0, stale / np.maximum(rows, 1), 1.0)
        pick = np.flatnonzero(fraction >= STALE_FRACTION)
        pick = pick[np.lexsort((fids[pick], -fraction[pick]))]
        return fids[pick], rows[pick]

    def victims(self) -> list[int]:
        """Ids of the files eligible for merging, most-stale first."""
        return self._select()[0].tolist()

    def compact(self) -> float:
        """Run one compaction check; returns its simulated seconds (0.0
        when it does not trigger — :attr:`total_compactions` counts the
        ones that do; the bytes moved are the device's counters)."""
        if not self.should_compact():
            return 0.0
        store = self.store
        victims, rows = self._select()
        if not victims.size:
            return 0.0

        # Read each whole victim file; its live rows are kept.
        sizes = rows * store.row_bytes
        seconds = float(np.cumsum(store.device.read_files(sizes))[-1])
        # A key can be live in at most one victim (the mapping points to
        # exactly one row), so the keys are unique by construction.
        keys, vals = store.live_rows(victims)
        if keys.size:
            seconds += store.write(keys, vals)[0]
        for fid in victims.tolist():
            store.erase(fid)
        store.reclaim()
        self.total_compactions += 1
        return seconds
